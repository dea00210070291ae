package ehinfer

// Ablation benches for the design choices DESIGN.md calls out: exit-
// guided nonuniform compression, incremental inference, learned exit
// selection, and the choice of search algorithm.

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkAblationUniformVsNonuniform deploys the uniform and nonuniform
// policies under the identical EH scenario and compares end-to-end IEpmJ —
// isolating the value of exit-guided compression (the uniform model also
// violates the 16 KB budget, so its row is the optimistic case).
func BenchmarkAblationUniformVsNonuniform(b *testing.B) {
	var uniIE, nonIE float64
	for i := 0; i < b.N; i++ {
		sc := DefaultScenario(42)

		non, err := BuildDeployed(Fig1bNonuniform(), 42)
		if err != nil {
			b.Fatal(err)
		}
		nonRows, err := NewSession().CompareSystems(context.Background(), sc, non, CompareConfig{})
		if err != nil {
			b.Fatal(err)
		}
		nonIE = nonRows[0].IEpmJ

		net := LeNetEE(NewRNG(42))
		uniRt, err := buildRuntimeForPolicy(sc, net, Fig1bUniform(net), 42)
		if err != nil {
			b.Fatal(err)
		}
		uniRep, err := runWarmed(uniRt, sc, 12)
		if err != nil {
			b.Fatal(err)
		}
		uniIE = uniRep.IEpmJ()
	}
	b.ReportMetric(nonIE, "IEpmJ-nonuniform")
	b.ReportMetric(uniIE, "IEpmJ-uniform")
	fmt.Printf("\n[ablation: compression] IEpmJ nonuniform %.3f vs uniform %.3f (%.2f×)\n",
		nonIE, uniIE, nonIE/uniIE)
}

func buildRuntimeForPolicy(sc *Scenario, net *Network, p *Policy, seed uint64) (*Runtime, error) {
	sur, err := NewSurrogate(net, nil)
	if err != nil {
		return nil, err
	}
	accs := sur.ExitAccuracies(p)
	if err := ApplyPolicy(net, p); err != nil {
		return nil, err
	}
	d, err := NewDeployed(net, accs)
	if err != nil {
		return nil, err
	}
	return NewRuntime(d, RuntimeConfig{
		Mode: PolicyQLearning, Device: sc.Device, Storage: sc.Storage, Seed: seed,
		SkipFitCheck: true, // the uniform arm exceeds 16 KB; this ablation isolates accuracy/energy effects
	})
}

func runWarmed(rt *Runtime, sc *Scenario, warmup int) (*Report, error) {
	for ep := 0; ep < warmup; ep++ {
		rt.SetExploration(0.3*float64(warmup-ep)/float64(warmup) + 0.01)
		if _, err := rt.Run(sc.Trace, sc.Schedule); err != nil {
			return nil, err
		}
	}
	rt.SetExploration(0.02)
	return rt.Run(sc.Trace, sc.Schedule)
}

// BenchmarkAblationNoIncremental disables incremental inference and
// measures the IEpmJ cost of losing the §IV second decision.
func BenchmarkAblationNoIncremental(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		sc := DefaultScenario(42)
		d, err := BuildDeployed(Fig1bNonuniform(), 42)
		if err != nil {
			b.Fatal(err)
		}
		for _, disable := range []bool{false, true} {
			rt, err := NewRuntime(d, RuntimeConfig{
				Mode: PolicyQLearning, Device: sc.Device, Storage: sc.Storage,
				Seed: 42, DisableIncremental: disable,
			})
			if err != nil {
				b.Fatal(err)
			}
			rep, err := runWarmed(rt, sc, 12)
			if err != nil {
				b.Fatal(err)
			}
			if disable {
				without = rep.IEpmJ()
			} else {
				with = rep.IEpmJ()
			}
		}
	}
	b.ReportMetric(with, "IEpmJ-incremental")
	b.ReportMetric(without, "IEpmJ-no-incremental")
	fmt.Printf("\n[ablation: incremental inference] IEpmJ with %.3f vs without %.3f\n", with, without)
}

// BenchmarkAblationStaticVsQLearning compares the learned runtime against
// the static LUT at matched deployment (the Fig. 7 comparison as a single
// end-to-end number).
func BenchmarkAblationStaticVsQLearning(b *testing.B) {
	var qAcc, sAcc float64
	for i := 0; i < b.N; i++ {
		sc := DefaultScenario(42)
		d, err := BuildDeployed(Fig1bNonuniform(), 42)
		if err != nil {
			b.Fatal(err)
		}
		qrt, err := NewRuntime(d, RuntimeConfig{Mode: PolicyQLearning, Device: sc.Device, Storage: sc.Storage, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		qrep, err := runWarmed(qrt, sc, 14)
		if err != nil {
			b.Fatal(err)
		}
		qAcc = qrep.AccuracyAllEvents()
		srt, err := NewRuntime(d, RuntimeConfig{Mode: PolicyStaticLUT, Device: sc.Device, Storage: sc.Storage, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		srep, err := srt.Run(sc.Trace, sc.Schedule)
		if err != nil {
			b.Fatal(err)
		}
		sAcc = srep.AccuracyAllEvents()
	}
	b.ReportMetric(qAcc, "acc-qlearning")
	b.ReportMetric(sAcc, "acc-static")
	fmt.Printf("\n[ablation: runtime policy] acc(all events) Q-learning %.1f%% vs static %.1f%% (paper: +10.2%% relative; measured %+.1f%%)\n",
		100*qAcc, 100*sAcc, 100*(qAcc/sAcc-1))
}

// BenchmarkAblationSearchers compares the DDPG search against random
// search and simulated annealing at an equal evaluation budget.
func BenchmarkAblationSearchers(b *testing.B) {
	results := map[string]float64{}
	for i := 0; i < b.N; i++ {
		sc := DefaultScenario(42)
		cfg := SearchConfig{
			Episodes: 60,
			Trace:    sc.Trace,
			Schedule: sc.Schedule,
			Storage:  sc.Storage,
			Seed:     42,
		}
		session := NewSession()
		for name, fn := range map[string]func(context.Context, *Network, *Surrogate, SearchConfig) (*SearchResult, error){
			"ddpg":      session.SearchCompression,
			"random":    session.SearchCompressionRandom,
			"annealing": session.SearchCompressionAnnealing,
		} {
			net := LeNetEE(NewRNG(3))
			sur, err := NewSurrogate(net, nil)
			if err != nil {
				b.Fatal(err)
			}
			res, err := fn(context.Background(), net, sur, cfg)
			if err != nil && res.Policy == nil {
				results[name] = 0
				continue
			}
			results[name] = res.Racc
		}
	}
	b.ReportMetric(results["ddpg"], "Racc-ddpg")
	b.ReportMetric(results["random"], "Racc-random")
	b.ReportMetric(results["annealing"], "Racc-annealing")
	fmt.Printf("\n[ablation: search] Racc at 60 evaluations — DDPG %.3f, random %.3f, annealing %.3f\n",
		results["ddpg"], results["random"], results["annealing"])
}
