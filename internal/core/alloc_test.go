package core

import (
	"testing"

	"repro/internal/compress"
)

// TestRunAllocations bounds what one Run allocates: the report, its
// outcome slice, the engine, its storage copy and the system label.
// Nothing may be allocated per event.
func TestRunAllocations(t *testing.T) {
	sc := DefaultScenario(42)
	d, err := BuildDeployed(compress.Fig1bNonuniform(), 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []PolicyMode{PolicyQLearning, PolicyStaticLUT} {
		rt, err := NewRuntime(d, RuntimeConfig{Mode: mode, Device: sc.Device, Storage: sc.Storage, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := rt.Run(sc.Trace, sc.Schedule); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 5 {
			t.Fatalf("%s: Run allocates %v times per call, want at most 5", mode, allocs)
		}
	}
}
