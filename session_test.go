package ehinfer

// Session façade tests: option defaults, cancellation mid-grid,
// streaming-vs-final consistency, and the pinned guarantee that
// Session-run grids are bit-identical to the free-standing engine path
// at any worker count.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/exper"
)

// sessionTestGrid is a fast 4-point grid (2 exits × 2 seeds) with short
// traces and few events.
func sessionTestGrid() *ExperimentGrid {
	return &ExperimentGrid{
		Name:     "session-test",
		BaseSeed: 21,
		Events:   20,
		Traces:   []TraceSpec{exper.SolarTrace(900, 0.05)},
		Devices:  []DeviceSpec{exper.MSP432Device()},
		Policies: []PolicySpec{exper.NonuniformPolicy()},
		Exits:    []ExitSpec{exper.QLearningExit(2), exper.StaticExit()},
		Storages: []StorageSpec{exper.Capacitor(3)},
		Seeds:    []uint64{1, 2},
	}
}

func TestSessionOptionDefaults(t *testing.T) {
	s := NewSession()
	if s.Seed() != 42 {
		t.Fatalf("default seed must be the paper's 42, got %d", s.Seed())
	}
	if s.Workers() < 1 {
		t.Fatalf("default worker cap must resolve to >= 1, got %d", s.Workers())
	}
	if s.CacheSize() != 0 {
		t.Fatal("a fresh session must start with an empty deployment cache")
	}

	s = NewSession(WithWorkers(-3))
	if s.Workers() != NewSession(WithWorkers(0)).Workers() {
		t.Fatal("negative worker caps must behave like 0 (one worker per core)")
	}

	s = NewSession(WithWorkers(2), WithSeed(7), WithDeployedCache(false))
	if s.Workers() != 2 || s.Seed() != 7 {
		t.Fatalf("options not applied: workers=%d seed=%d", s.Workers(), s.Seed())
	}
	if _, err := s.RunGrid(context.Background(), sessionTestGrid()); err != nil {
		t.Fatal(err)
	}
	if s.CacheSize() != 0 {
		t.Fatal("WithDeployedCache(false) must disable caching")
	}

	// Two deterministic sessions derive identical RNG streams; distinct
	// streams differ.
	a, b := NewSession(WithSeed(5)).NewRNG(1), NewSession(WithSeed(5)).NewRNG(1)
	if a.Float64() != b.Float64() {
		t.Fatal("session RNG derivation must be a pure function of (seed, stream)")
	}
	if NewSession(WithSeed(5)).NewRNG(1).Float64() == NewSession(WithSeed(5)).NewRNG(2).Float64() {
		t.Fatal("distinct streams must separate")
	}
}

func TestSessionRunGridCachesDeployments(t *testing.T) {
	s := NewSession(WithWorkers(2))
	g := sessionTestGrid()
	if _, err := s.RunGrid(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	if s.CacheSize() != 1 {
		t.Fatalf("one (policy, seed) pair must cache one deployment, got %d", s.CacheSize())
	}
	if _, err := s.RunGrid(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	if s.CacheSize() != 1 {
		t.Fatalf("repeated grid must reuse the cached deployment, got %d", s.CacheSize())
	}
}

func TestSessionCancellationMidGrid(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var first bool
	s := NewSession(WithWorkers(1), WithProgress(func(ExperimentResult) {
		if !first {
			first = true
			cancel()
		}
	}))
	res, err := s.RunGrid(ctx, sessionTestGrid())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res == nil {
		t.Fatal("partial results must be preserved on cancellation")
	}
	var completed, unfinished int
	for _, r := range res.Results {
		if r.Err == "" && len(r.Rows) > 0 {
			completed++
		} else {
			unfinished++
		}
	}
	if completed == 0 || unfinished == 0 {
		t.Fatalf("want a mix of completed and unfinished points, got %d/%d", completed, unfinished)
	}
}

func TestSessionStreamingMatchesFinal(t *testing.T) {
	s := NewSession(WithWorkers(3))
	run := s.StartGrid(context.Background(), sessionTestGrid())

	streamed := map[int]string{}
	for r := range run.Results() {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if _, dup := streamed[r.Point.Index]; dup {
			t.Fatalf("point %d streamed twice", r.Point.Index)
		}
		streamed[r.Point.Index] = string(b)
	}
	final, err := run.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(final.Results) {
		t.Fatalf("streamed %d points, final has %d", len(streamed), len(final.Results))
	}
	for i, r := range final.Results {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if streamed[i] != string(b) {
			t.Fatalf("point %d: streamed result differs from final\nstream: %s\nfinal:  %s", i, streamed[i], b)
		}
	}
}

// TestSessionBitIdenticalToEnginePath is the API-redesign acceptance
// pin: a Session-run grid serializes byte-identically to the
// free-standing engine path, at any worker count, with and without the
// deployment cache warm.
func TestSessionBitIdenticalToEnginePath(t *testing.T) {
	g := sessionTestGrid()

	old, err := exper.NewEngine(1).RunContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	oldJSON, err := old.JSON()
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 8} {
		s := NewSession(WithWorkers(workers))
		for pass := 0; pass < 2; pass++ { // second pass runs cache-warm
			res, err := s.RunGrid(context.Background(), g)
			if err != nil {
				t.Fatal(err)
			}
			j, err := res.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(oldJSON, j) {
				t.Fatalf("session (workers=%d, pass=%d) diverged from engine path", workers, pass)
			}
		}
	}
}

func TestSessionWithBackend(t *testing.T) {
	if s := NewSession(); s.Backend() != BackendDefault {
		t.Fatalf("a fresh session must carry the unset backend sentinel, got %v", s.Backend())
	}
	if BackendDefault.Resolve() != BackendPlan {
		t.Fatal("the unset backend must resolve to the compiled plan")
	}
	s := NewSession(WithBackend(BackendInt8Fast))
	if s.Backend() != BackendInt8Fast {
		t.Fatalf("WithBackend not applied: %v", s.Backend())
	}
	if b, err := ParseBackend("int8"); err != nil || b != BackendInt8Fast {
		t.Fatalf(`ParseBackend("int8") = %v, %v; want the int8fast alias`, b, err)
	}
}

func TestSessionResumeGridByteIdentical(t *testing.T) {
	g := sessionTestGrid()
	full, err := NewSession(WithWorkers(2)).RunGrid(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.JSON()
	if err != nil {
		t.Fatal(err)
	}

	// Restore the first half of the points and resume the rest; streamed
	// results must cover only the remainder, and the final document must
	// match the uninterrupted run byte for byte.
	completed := map[int]ExperimentResult{}
	for i := 0; i < len(full.Results)/2; i++ {
		completed[i] = full.Results[i]
	}
	run := NewSession(WithWorkers(3)).ResumeGrid(context.Background(), g, completed)
	streamed := 0
	for r := range run.Results() {
		if _, restored := completed[r.Point.Index]; restored {
			t.Fatalf("restored point %d was re-streamed", r.Point.Index)
		}
		streamed++
	}
	final, err := run.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if streamed != len(full.Results)-len(completed) {
		t.Fatalf("streamed %d points, want %d", streamed, len(full.Results)-len(completed))
	}
	got, err := final.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("resumed session run serialized differently from uninterrupted run")
	}
}
