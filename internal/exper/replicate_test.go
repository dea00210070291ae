package exper

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/mcu"
)

// traceBuilds counts the builds of the counting registered traces by
// seed. Tests in this package run one at a time, so each resets it.
var (
	traceBuildsMu    sync.Mutex
	traceBuilds      map[uint64]int
	registerCounting sync.Once
)

// countingTraces returns two trace axis values whose builder records
// every build in traceBuilds, which it resets. The names are registered
// once per process, so the tests re-run under -count.
func countingTraces(t *testing.T) []TraceSpec {
	t.Helper()
	var err error
	registerCounting.Do(func() {
		build := func(seed uint64) (*energy.Trace, error) {
			traceBuildsMu.Lock()
			traceBuilds[seed]++
			traceBuildsMu.Unlock()
			return energy.SyntheticSolarTrace(energy.SolarConfig{Seconds: 900, PeakPower: 0.05, Seed: seed}), nil
		}
		for _, name := range []string{"count-a", "count-b"} {
			if err == nil {
				err = RegisterTrace(name, build)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	traceBuildsMu.Lock()
	traceBuilds = map[uint64]int{}
	traceBuildsMu.Unlock()
	return []TraceSpec{RegisteredTrace("count-a"), RegisteredTrace("count-b")}
}

// builds returns a copy of the counts since the last reset.
func builds() map[uint64]int {
	traceBuildsMu.Lock()
	defer traceBuildsMu.Unlock()
	out := make(map[uint64]int, len(traceBuilds))
	for seed, n := range traceBuilds {
		out[seed] = n
	}
	return out
}

// replicateGrid has 2 traces × 2 devices × 2 exits × 3 seeds = 24 points
// in 6 replicates. Two of its seeds are equal: replicates are keyed by
// position, so they stay two.
func replicateGrid(t *testing.T) *Grid {
	return &Grid{
		Name:     "replicates",
		BaseSeed: 3,
		Events:   10,
		Traces:   countingTraces(t),
		Devices:  []DeviceSpec{MSP432Device(), Device("ApolloM4", mcu.ApolloM4)},
		Policies: []PolicySpec{NonuniformPolicy()},
		Exits:    []ExitSpec{QLearningExit(1), StaticExit()},
		Storages: []StorageSpec{Capacitor(3)},
		Seeds:    []uint64{4, 4, 5},
	}
}

// TestPointTraceSeeds pins the seed rule: every point of a replicate
// carries the RunSeed of the replicate's lowest-index point (trace
// position × block + seed position) as its TraceSeed, and distinct
// replicates get distinct seeds.
func TestPointTraceSeeds(t *testing.T) {
	g := replicateGrid(t)
	pts := g.Points()
	block := len(pts) / len(g.Traces)
	seeds := map[uint64]int{}
	for _, p := range pts {
		ti, si := p.Index/block, p.Index%len(g.Seeds)
		lowest := pts[ti*block+si]
		if p.TraceSeed != lowest.RunSeed {
			t.Fatalf("point %d: trace seed %#x, want point %d's run seed %#x", p.Index, p.TraceSeed, lowest.Index, lowest.RunSeed)
		}
		if r := g.replicateOf(p.Index); r != ti*len(g.Seeds)+si {
			t.Fatalf("point %d: replicate %d, want %d", p.Index, r, ti*len(g.Seeds)+si)
		}
		seeds[p.TraceSeed]++
	}
	if len(seeds) != len(g.Traces)*len(g.Seeds) {
		t.Fatalf("%d distinct trace seeds, want one per replicate (%d)", len(seeds), len(g.Traces)*len(g.Seeds))
	}

	// Grids with one value on every axis but the seeds keep a trace per
	// point, seeded as before.
	for _, one := range []*Grid{PaperCompareGrid(42, 2, core.PolicyQLearning), SeedReplicationGrid(4, 20)} {
		for _, p := range one.Points() {
			if p.TraceSeed != p.RunSeed {
				t.Fatalf("grid %q point %d: trace seed %#x differs from run seed %#x", one.Name, p.Index, p.TraceSeed, p.RunSeed)
			}
		}
	}
}

// TestEachReplicateBuildsItsTraceOnce: a run builds each (trace, seed)
// replicate's trace exactly once, at any worker count, and the output
// does not depend on which worker built it.
func TestEachReplicateBuildsItsTraceOnce(t *testing.T) {
	var docs [][]byte
	for _, workers := range []int{1, 4} {
		g := replicateGrid(t)
		res, err := NewEngine(workers).Run(g)
		if err != nil {
			t.Fatal(err)
		}
		if errs := res.Errs(); len(errs) != 0 {
			t.Fatal(errs)
		}
		got := builds()
		if len(got) != len(g.Traces)*len(g.Seeds) {
			t.Fatalf("workers=%d: built %d traces, want one per replicate (%d): %v", workers, len(got), len(g.Traces)*len(g.Seeds), got)
		}
		for _, p := range g.Points() {
			if got[p.TraceSeed] != 1 {
				t.Fatalf("workers=%d: point %d's trace (seed %#x) built %d times", workers, p.Index, p.TraceSeed, got[p.TraceSeed])
			}
		}
		doc, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc)
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Fatal("workers=1 and workers=4 documents differ")
	}
}

// TestResumeBuildsOnlyPendingReplicates: a resumed run builds only the
// traces of replicates that still have a pending point, and still
// reproduces the uninterrupted document.
func TestResumeBuildsOnlyPendingReplicates(t *testing.T) {
	g := replicateGrid(t)
	full, err := NewEngine(2).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.JSON()
	if err != nil {
		t.Fatal(err)
	}

	// Restore all of replicate 0 and every other point of replicate 5.
	completed := map[int]Result{}
	var restored uint64
	for i, r := range full.Results {
		switch g.replicateOf(i) {
		case 0:
			completed[i] = r
			restored = r.Point.TraceSeed
		case 5:
			if i%2 == 0 {
				completed[i] = r
			}
		}
	}
	g = replicateGrid(t) // resets the counts
	e := NewEngine(4)
	e.Completed = completed
	resumed, err := e.RunContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("resumed document differs from the uninterrupted run's")
	}
	b := builds()
	if len(b) != len(g.Traces)*len(g.Seeds)-1 || b[restored] != 0 {
		t.Fatalf("resumed run built %v; want every replicate but the restored one (seed %#x) once", b, restored)
	}
	for seed, n := range b {
		if n != 1 {
			t.Fatalf("trace seed %#x built %d times", seed, n)
		}
	}
}

// TestReplicateSharesAndReleasesTrace: the replicate's points get one
// trace, or one error, and the last release lets the trace go.
func TestReplicateSharesAndReleasesTrace(t *testing.T) {
	r := &replicate{spec: SolarTrace(600, 0.05), seed: 9}
	r.pending.Add(2)
	a, msgA := r.get()
	b, msgB := r.get()
	if a == nil || a != b || msgA != "" || msgB != "" {
		t.Fatalf("two gets returned %p %q and %p %q, want one shared trace", a, msgA, b, msgB)
	}
	r.release()
	if r.trace == nil {
		t.Fatal("trace released while a point still holds it")
	}
	r.release()
	if r.trace != nil {
		t.Fatal("trace kept after its last point")
	}

	// Points of one replicate on concurrent workers.
	const users = 8
	r = &replicate{spec: SolarTrace(600, 0.05), seed: 9}
	r.pending.Add(users)
	got := make([]*energy.Trace, users)
	var wg sync.WaitGroup
	for i := range users {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = r.get()
			r.release()
		}()
	}
	wg.Wait()
	for i, tr := range got {
		if tr == nil || tr != got[0] {
			t.Fatalf("worker %d got trace %p, worker 0 %p", i, tr, got[0])
		}
	}
	if r.trace != nil {
		t.Fatal("trace kept after its last point")
	}

	bad := &replicate{spec: TraceSpec{Name: "neg", Kind: TraceKinetic, Seconds: -5}, seed: 9}
	if tr, msg := bad.get(); tr != nil || msg == "" {
		t.Fatalf("negative-length trace built: %v %q", tr, msg)
	}
	if _, msg2 := bad.get(); msg2 == "" {
		t.Fatal("a failed build must fail every point of the replicate")
	}
}
