package exper

import (
	"context"
	"encoding/json"
	"errors"
	"sync/atomic"
	"testing"
)

// TestRunContextCancelPreservesPartialResults pins the cancellation
// contract: canceling mid-grid returns ctx.Err() together with a non-nil
// GridResult in which every completed point keeps its rows and every
// unreached point is marked Skipped.
func TestRunContextCancelPreservesPartialResults(t *testing.T) {
	grid := testGrid() // 8 points
	ctx, cancel := context.WithCancel(context.Background())

	e := NewEngine(1)
	var seen atomic.Int32
	e.OnResult = func(Result) {
		if seen.Add(1) == 1 {
			cancel() // cancel as soon as the first point lands
		}
	}
	res, err := e.RunContext(ctx, grid)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res == nil {
		t.Fatal("canceled run must still return the partial GridResult")
	}
	if len(res.Results) != grid.Size() {
		t.Fatalf("results slice must keep enumeration shape: %d vs %d", len(res.Results), grid.Size())
	}
	var completed, skipped int
	for _, r := range res.Results {
		switch {
		case len(r.Rows) > 0 && r.Err == "":
			completed++
		case r.Skipped:
			if r.Err != ErrSkipped {
				t.Fatalf("skipped point carries Err %q", r.Err)
			}
			skipped++
		default:
			// A point torn mid-flight by the cancel is skipped too.
			t.Fatalf("point %d is neither completed nor skipped: %+v", r.Point.Index, r)
		}
	}
	if completed == 0 {
		t.Fatal("at least the first point must have completed")
	}
	if skipped == 0 {
		t.Fatal("with 1 worker and an early cancel, some points must be skipped")
	}
	t.Logf("completed=%d skipped=%d", completed, skipped)

	// Completed points must be bit-identical to an uncancelled run.
	full, err := NewEngine(1).RunContext(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Results {
		if len(r.Rows) == 0 || r.Err != "" {
			continue
		}
		if got, want := mustJSON(t, r), mustJSON(t, full.Results[i]); got != want {
			t.Fatalf("completed point %d differs from uncancelled run:\n%s\nvs\n%s", i, got, want)
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRunContextPreCanceled: a context dead on arrival runs nothing.
func TestRunContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := NewEngine(2).RunContext(ctx, testGrid())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res != nil {
		t.Fatal("a run that never started should not fabricate a GridResult")
	}
}

// TestNewEngineClampsNegativeWorkers pins the single-place worker-cap
// validation: negative caps behave exactly like 0 (GOMAXPROCS).
func TestNewEngineClampsNegativeWorkers(t *testing.T) {
	if got, want := NewEngine(-5).WorkerCount(), NewEngine(0).WorkerCount(); got != want {
		t.Fatalf("negative cap resolves to %d, want %d", got, want)
	}
	if NewEngine(3).WorkerCount() != 3 {
		t.Fatal("positive caps must be respected")
	}
}

// TestGridResultRecordsWorkers: the resolved pool size is surfaced for
// reproducibility records (and clamped to the point count).
func TestGridResultRecordsWorkers(t *testing.T) {
	grid := testGrid()
	grid.Baselines = false
	grid.Seeds = []uint64{1}
	grid.Storages = grid.Storages[:1] // 2 points
	res, err := NewEngine(8).RunContext(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 2 {
		t.Fatalf("8 workers over 2 points must resolve to 2, got %d", res.Workers)
	}
}

// TestDeployCacheReusesDeployments: two runs over the same policy axis
// build the deployment once, and the cached run is bit-identical to the
// uncached one.
func TestDeployCacheReusesDeployments(t *testing.T) {
	grid := testGrid()
	cache := NewDeployCache()

	e := NewEngine(2)
	e.Cache = cache
	r1, err := e.RunContext(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 1 {
		t.Fatalf("one policy × one deploy seed must cache 1 deployment, got %d", cache.Len())
	}
	r2, err := e.RunContext(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 1 {
		t.Fatalf("second run must not grow the cache, got %d", cache.Len())
	}

	j1, err := r1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := r2.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatal("cached rerun diverged from first run")
	}

	// And against a cache-less engine: the cache is an optimization, not
	// a semantic.
	r3, err := NewEngine(2).RunContext(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	j3, err := r3.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j3) {
		t.Fatal("cached run diverged from uncached engine path")
	}
}
