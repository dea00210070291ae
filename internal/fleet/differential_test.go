package fleet

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/exper"
	"repro/internal/tensor"
)

// TestOneDeviceFleetMatchesCoreRuntime runs a 1-device fleet and a
// core.Runtime on the same device, trace, schedule and seeds, epoch by
// epoch, and requires the same decisions: equal event, processed and
// correct counts, exit histograms and harvested energy. Inference energy
// is compared to 1e-12 relative: the fleet adds each run's energy to a
// per-device total while core sums it per event, so the two orders may
// round differently in the last place.
func TestOneDeviceFleetMatchesCoreRuntime(t *testing.T) {
	cases := []struct {
		name  string
		pop   PopulationSpec
		seeds []uint64
	}{
		{"qlearning-annealed", PopulationSpec{}, []uint64{1, 2, 3}},
		{"qlearning-fixed-eps", PopulationSpec{Epsilon: 0.15}, []uint64{4, 5}},
		{"static", PopulationSpec{Exit: exper.StaticExit()}, []uint64{6, 7}},
		{"kinetic", PopulationSpec{Trace: exper.KineticTrace(1800, 0.9)}, []uint64{8, 9}},
		{"apollo-3mJ", PopulationSpec{Device: "ApolloM4", Storage: exper.Capacitor(3)}, []uint64{10, 11}},
		{"static-3mJ", PopulationSpec{Exit: exper.StaticExit(), Storage: exper.Capacitor(3)}, []uint64{12}},
		{"empirical", PopulationSpec{Empirical: true}, []uint64{13}},
	}
	for _, tc := range cases {
		for _, seed := range tc.seeds {
			pop := tc.pop
			pop.Count = 1
			s := &Spec{BaseSeed: seed, Epochs: 5, Events: 30, Samples: 16, Populations: []PopulationSpec{pop}}
			if pop.Empirical {
				s.Epochs, s.Events = 2, 8
			}
			compareWithRuntime(t, tc.name, s)
		}
	}
}

func compareWithRuntime(t *testing.T, name string, s *Spec) {
	t.Helper()
	f, err := s.Fleet()
	if err != nil {
		t.Fatalf("%s: Fleet: %v", name, err)
	}
	res, err := (&Engine{Workers: 1}).Run(context.Background(), f)
	if err != nil {
		t.Fatalf("%s: Run: %v", name, err)
	}
	p := f.Pops[0]

	// Rebuild device 0's inputs from its seed streams.
	tr := p.Traces[exper.DeriveSeed(f.BaseSeed, 0, saltTrace)%uint64(len(p.Traces))]
	schedRNG := tensor.NewRNG(exper.DeriveSeed(f.BaseSeed, 0, saltSched))
	times := make([]int, f.Events)
	for i := range times {
		times[i] = schedRNG.Intn(tr.Duration())
	}
	slices.Sort(times)
	sched := &energy.Schedule{Events: make([]energy.Event, f.Events)}
	for i, ti := range times {
		sched.Events[i] = energy.Event{T: ti, Class: i % f.EventClasses, SampleIndex: -1}
	}
	if p.Empirical {
		for i := range sched.Events {
			sched.Events[i].SampleIndex = schedRNG.Intn(f.TestSet.Len())
		}
	}

	storage := p.Storage
	cfg := core.RuntimeConfig{
		Mode:       p.Mode,
		Device:     p.Device,
		Storage:    &storage,
		EnergyBins: p.EnergyBins,
		PowerBins:  p.PowerBins,
		ConfBins:   p.ConfBins,
		// core seeds its policy stream with Seed+0xc0fe.
		Seed: exper.DeriveSeed(f.BaseSeed, 0, saltDevice) - 0xc0fe,
	}
	if p.Empirical {
		cfg.TestSet = f.TestSet
	}
	rt, err := core.NewRuntime(p.Deployed, cfg)
	if err != nil {
		t.Fatalf("%s: NewRuntime: %v", name, err)
	}

	for ep := 0; ep < f.Epochs; ep++ {
		rt.SetExploration(popEpsilon(p, ep, f.Epochs))
		rep, err := rt.Run(tr, sched)
		if err != nil {
			t.Fatalf("%s seed %d epoch %d: core Run: %v", name, f.BaseSeed, ep, err)
		}
		got := res.Snapshots[ep].Populations[0]
		hist := rep.ExitHistogram()
		var energyMJ float64
		for _, o := range rep.Outcomes {
			energyMJ += o.EnergyMJ
		}
		where := fmt.Sprintf("%s seed %d epoch %d", name, f.BaseSeed, ep)
		if got.Events != int64(rep.Events()) || got.Processed != int64(rep.ProcessedCount()) || got.Correct != int64(rep.CorrectCount()) {
			t.Fatalf("%s: fleet events/processed/correct %d/%d/%d, core %d/%d/%d", where,
				got.Events, got.Processed, got.Correct, rep.Events(), rep.ProcessedCount(), rep.CorrectCount())
		}
		if !slices.Equal(got.ExitHist, intsToInt64(hist)) {
			t.Fatalf("%s: fleet exit histogram %v, core %v", where, got.ExitHist, hist)
		}
		if got.HarvestedMJ != rep.HarvestedMJ {
			t.Fatalf("%s: fleet harvested %v mJ, core %v", where, got.HarvestedMJ, rep.HarvestedMJ)
		}
		if d := math.Abs(got.EnergyMJ - energyMJ); d > 1e-12*math.Max(math.Abs(energyMJ), 1) {
			t.Fatalf("%s: fleet inference energy %v mJ, core %v", where, got.EnergyMJ, energyMJ)
		}
		if got.Processed == 0 && ep == f.Epochs-1 {
			t.Fatalf("%s: device processed nothing; the comparison shows nothing", where)
		}
	}
}

func intsToInt64(v []int) []int64 {
	out := make([]int64, len(v))
	for i, x := range v {
		out[i] = int64(x)
	}
	return out
}
