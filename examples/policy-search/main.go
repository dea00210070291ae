// Policy search: runs the paper's §III offline phase end to end — the
// dual-agent DDPG compression search over layer-wise pruning rates and
// bitwidths, guided by the EH power trace and event distribution — then
// deploys the discovered policy and compares it against uniform
// compression under the same trace.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	ehinfer "repro"
)

func main() {
	ctx := context.Background()
	session := ehinfer.NewSession()
	scenario := ehinfer.DefaultScenario(3)
	net := ehinfer.LeNetEE(ehinfer.NewRNG(3))
	surrogate, err := ehinfer.NewSurrogate(net, nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("running DDPG compression search (F ≤ 1.15 MFLOPs, S ≤ 16 KB)...")
	start := time.Now()
	result, err := session.SearchCompression(ctx, net, surrogate, ehinfer.SearchConfig{
		Episodes: 120,
		Trace:    scenario.Trace,
		Schedule: scenario.Schedule,
		Storage:  scenario.Storage,
		Seed:     3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("search finished in %.1fs\n\n", time.Since(start).Seconds())

	fmt.Printf("best policy (Racc = %.4f, F = %.4f MFLOPs, S = %.1f KB):\n%s\n",
		result.Racc,
		float64(result.Measure.ModelFLOPs)/1e6,
		float64(result.Measure.WeightBytes)/1024,
		result.Policy)

	// Deploy the searched policy and simulate.
	searched, err := ehinfer.BuildDeployed(result.Policy, 3)
	if err != nil {
		log.Fatal(err)
	}
	rows, err := session.CompareSystems(ctx, scenario, searched, ehinfer.CompareConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("searched policy deployed: IEpmJ %.3f, acc(all) %.1f%%\n",
		rows[0].IEpmJ, 100*rows[0].AccAll)

	// Reference: the hand-calibrated nonuniform policy.
	reference, err := ehinfer.BuildDeployed(ehinfer.Fig1bNonuniform(), 3)
	if err != nil {
		log.Fatal(err)
	}
	refRows, err := session.CompareSystems(ctx, scenario, reference, ehinfer.CompareConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reference nonuniform:     IEpmJ %.3f, acc(all) %.1f%%\n",
		refRows[0].IEpmJ, 100*refRows[0].AccAll)

	// Search-algorithm comparison at the same budget.
	fmt.Println("\nsearch-algorithm comparison (60 evaluations each):")
	cfg := ehinfer.SearchConfig{
		Episodes: 60, Trace: scenario.Trace, Schedule: scenario.Schedule,
		Storage: scenario.Storage, Seed: 3,
	}
	for _, alg := range []struct {
		name string
		fn   func(context.Context, *ehinfer.Network, *ehinfer.Surrogate, ehinfer.SearchConfig) (*ehinfer.SearchResult, error)
	}{
		{"DDPG (paper)", session.SearchCompression},
		{"random", session.SearchCompressionRandom},
		{"annealing", session.SearchCompressionAnnealing},
	} {
		n := ehinfer.LeNetEE(ehinfer.NewRNG(3))
		s, err := ehinfer.NewSurrogate(n, nil)
		if err != nil {
			log.Fatal(err)
		}
		res, err := alg.fn(ctx, n, s, cfg)
		if res == nil || res.Policy == nil {
			fmt.Printf("  %-14s found no feasible policy in 60 evaluations (err=%v)\n", alg.name, err)
			continue
		}
		fmt.Printf("  %-14s Racc %.4f (F %.3fM, S %.1fKB)\n", alg.name, res.Racc,
			float64(res.Measure.ModelFLOPs)/1e6, float64(res.Measure.WeightBytes)/1024)
	}
}
