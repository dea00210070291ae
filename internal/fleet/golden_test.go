package fleet

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/exper"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// goldenSpec touches every branch of the §IV episode loop a fleet can
// reach: Q-learning with annealed and fixed ε, the static LUT, all three
// churn kinds on a kinetic trace (long zero-power waits), a second MCU on
// a small capacitor, and real inference on the compiled plan.
func goldenSpec() *Spec {
	return &Spec{
		Name:     "golden",
		BaseSeed: 21,
		Epochs:   4,
		Events:   16,
		Samples:  24,
		Populations: []PopulationSpec{
			{Name: "q", Count: 24, TraceVariants: 4},
			{Name: "static", Count: 16, Exit: exper.StaticExit(), TraceVariants: 4},
			{Name: "kinetic-churn", Count: 24, Trace: exper.KineticTrace(1800, 0.9), TraceVariants: 4,
				Churn: []ChurnSpec{
					{Kind: ChurnLeave, Prob: 0.2},
					{Kind: ChurnJoin, Prob: 0.3},
					{Kind: ChurnDegrade, Prob: 0.5, Rate: 0.2},
				}},
			{Name: "apollo", Count: 16, Device: "ApolloM4", Storage: exper.Capacitor(3), Epsilon: 0.1, TraceVariants: 4},
			{Name: "emp", Count: 2, Empirical: true, TraceVariants: 2},
		},
	}
}

// TestFleetResultJSONGolden pins the fleet's output byte for byte, so a
// change to the episode loop's arithmetic or decision order shows up as
// a diff. If the output changes intentionally, regenerate with:
//
//	go test ./internal/fleet -run FleetResultJSONGolden -update
func TestFleetResultJSONGolden(t *testing.T) {
	f, err := goldenSpec().Fleet()
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Engine{Workers: 3}).Run(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "fleet_golden.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet result drifted from %s — if intentional, regenerate with -update.\ngot %d bytes, want %d", path, len(got), len(want))
	}
}
