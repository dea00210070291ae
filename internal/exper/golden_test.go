package exper

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// goldenGrid is small enough to run in milliseconds but exercises both
// runtime policies, a failing-free multi-seed axis, and aggregation.
func goldenGrid() *Grid {
	return &Grid{
		Name:     "golden",
		BaseSeed: 11,
		Events:   20,
		Traces:   []TraceSpec{SolarTrace(900, 0.05)},
		Devices:  []DeviceSpec{MSP432Device()},
		Policies: []PolicySpec{NonuniformPolicy()},
		Exits:    []ExitSpec{QLearningExit(2), StaticExit()},
		Storages: []StorageSpec{Capacitor(3)},
		Seeds:    []uint64{1, 2},
	}
}

// TestGridResultJSONGolden pins the serialized report format byte for
// byte: per-point results in enumeration order, aggregate rows sorted by
// (scenario, system) key, no map-iteration or scheduling order anywhere.
// If the format changes intentionally, regenerate with:
//
//	go test ./internal/exper -run GridResultJSONGolden -update
//
// The simulation itself is pure float64 arithmetic on derived seeds, so
// the bytes are stable across runs and worker counts by the engine's
// determinism contract.
func TestGridResultJSONGolden(t *testing.T) {
	res, err := NewEngine(4).RunContext(context.Background(), goldenGrid())
	if err != nil {
		t.Fatal(err)
	}
	if errs := res.Errs(); len(errs) != 0 {
		t.Fatal(errs)
	}
	got, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "grid_golden.json")
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
		t.Fatalf("serialized GridResult drifted from %s — if intentional, regenerate with -update.\ngot %d bytes, want %d", path, len(got), len(want))
	}
}
