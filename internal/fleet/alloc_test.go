package fleet

import (
	"testing"

	"repro/internal/exper"
)

// TestRunChunkAllocatesNothing pins the fleet's zero-allocation
// contract: once a worker has sized its scratch and built its plan
// cursors, a shard of devices runs without touching the heap.
func TestRunChunkAllocatesNothing(t *testing.T) {
	cases := []struct {
		name string
		pop  PopulationSpec
		runs int
	}{
		{"qlearning-churn", PopulationSpec{Count: 48, TraceVariants: 4,
			Churn: []ChurnSpec{{Kind: ChurnLeave, Prob: 0.2}, {Kind: ChurnDegrade, Prob: 0.5, Rate: 0.2}}}, 20},
		{"static", PopulationSpec{Count: 48, Exit: exper.StaticExit(), TraceVariants: 4}, 20},
		{"empirical", PopulationSpec{Count: 2, Empirical: true, TraceVariants: 2}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := &Spec{BaseSeed: 5, Epochs: 2, Events: 12, Samples: 16, Populations: []PopulationSpec{tc.pop}}
			f, err := s.Fleet()
			if err != nil {
				t.Fatal(err)
			}
			p := f.Pops[0]
			jb := job{p: p, a: newArena(f, p, 1), lo: 0, hi: p.Count, epoch: 1}
			w := worker{f: f}
			w.runChunk(jb) // warm-up: sizes the schedule scratch, builds plan cursors
			if n := testing.AllocsPerRun(tc.runs, func() { w.runChunk(jb) }); n != 0 {
				t.Fatalf("runChunk allocates %v times per shard after warm-up, want 0", n)
			}
		})
	}
}
