package exper

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"sync/atomic"
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

// scheduleBuilds counts the builds of the counting registered schedule
// by seed, reset like traceBuilds.
var (
	scheduleBuildsMu         sync.Mutex
	scheduleBuilds           map[uint64]int
	registerCountingSchedule sync.Once
)

// countingSchedule returns the name of a uniform schedule builder that
// records every build in scheduleBuilds, which it resets.
func countingSchedule(t *testing.T) string {
	t.Helper()
	const name = "count-uniform"
	var err error
	registerCountingSchedule.Do(func() {
		err = RegisterSchedule(name, func(n, duration, classes int, seed uint64) *energy.Schedule {
			scheduleBuildsMu.Lock()
			scheduleBuilds[seed]++
			scheduleBuildsMu.Unlock()
			return energy.UniformSchedule(n, duration, classes, seed)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	scheduleBuildsMu.Lock()
	scheduleBuilds = map[uint64]int{}
	scheduleBuildsMu.Unlock()
	return name
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
// position × block + seed position) as its ReplicateSeed, the seed of
// its trace, schedule and baselines, and distinct replicates get
// distinct seeds.
func TestPointTraceSeeds(t *testing.T) {
	g := replicateGrid(t)
	pts := g.Points()
	block := len(pts) / len(g.Traces)
	seeds := map[uint64]int{}
	for _, p := range pts {
		ti, si := p.Index/block, p.Index%len(g.Seeds)
		lowest := pts[ti*block+si]
		if p.ReplicateSeed != lowest.RunSeed {
			t.Fatalf("point %d: replicate seed %#x, want point %d's run seed %#x", p.Index, p.ReplicateSeed, lowest.Index, lowest.RunSeed)
		}
		if r := g.replicateOf(p.Index); r != ti*len(g.Seeds)+si {
			t.Fatalf("point %d: replicate %d, want %d", p.Index, r, ti*len(g.Seeds)+si)
		}
		seeds[p.ReplicateSeed]++
	}
	if len(seeds) != len(g.Traces)*len(g.Seeds) {
		t.Fatalf("%d distinct replicate seeds, want one per replicate (%d)", len(seeds), len(g.Traces)*len(g.Seeds))
	}

	// Grids with one value on every axis but the seeds keep a trace,
	// schedule and baseline run per point, seeded as before.
	for _, one := range []*Grid{PaperCompareGrid(42, 2, core.PolicyQLearning), SeedReplicationGrid(4, 20)} {
		for _, p := range one.Points() {
			if p.ReplicateSeed != p.RunSeed {
				t.Fatalf("grid %q point %d: replicate seed %#x differs from run seed %#x", one.Name, p.Index, p.ReplicateSeed, p.RunSeed)
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
		res, err := NewEngine(workers).RunContext(context.Background(), g)
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
			if got[p.ReplicateSeed] != 1 {
				t.Fatalf("workers=%d: point %d's trace (seed %#x) built %d times", workers, p.Index, p.ReplicateSeed, got[p.ReplicateSeed])
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
	full, err := NewEngine(2).RunContext(context.Background(), g)
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
			restored = r.Point.ReplicateSeed
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
// trace and one schedule, seeded by the replicate, or one error, and
// the last release lets them go.
func TestReplicateSharesAndReleasesTrace(t *testing.T) {
	g := &Grid{Events: 12}
	newSchedule, err := LookupSchedule("")
	if err != nil {
		t.Fatal(err)
	}
	r := &replicate{spec: SolarTrace(600, 0.05), seed: 9}
	r.pending.Add(2)
	msgA := r.get(g, newSchedule)
	a, sa := r.trace, r.schedule
	msgB := r.get(g, newSchedule)
	if a == nil || sa == nil || a != r.trace || sa != r.schedule || msgA != "" || msgB != "" {
		t.Fatalf("two gets returned %p/%p %q and %p/%p %q, want one shared trace and schedule",
			a, sa, msgA, r.trace, r.schedule, msgB)
	}
	if want := newSchedule(12, a.Duration(), 10, 9); !reflect.DeepEqual(sa, want) {
		t.Fatal("the replicate's schedule is not the builder's at the replicate seed")
	}
	r.release()
	if r.trace == nil || r.schedule == nil {
		t.Fatal("trace or schedule released while a point still holds it")
	}
	r.release()
	if r.trace != nil || r.schedule != nil {
		t.Fatal("trace or schedule kept after its last point")
	}

	// Points of one replicate on concurrent workers.
	const users = 8
	r = &replicate{spec: SolarTrace(600, 0.05), seed: 9}
	r.pending.Add(users)
	got := make([]*energy.Trace, users)
	scheds := make([]*energy.Schedule, users)
	var wg sync.WaitGroup
	for i := range users {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r.get(g, newSchedule) == "" {
				got[i], scheds[i] = r.trace, r.schedule
			}
			r.release()
		}()
	}
	wg.Wait()
	for i, tr := range got {
		if tr == nil || tr != got[0] || scheds[i] == nil || scheds[i] != scheds[0] {
			t.Fatalf("worker %d got trace %p and schedule %p, worker 0 %p and %p", i, tr, scheds[i], got[0], scheds[0])
		}
	}
	if r.trace != nil || r.schedule != nil {
		t.Fatal("trace or schedule kept after its last point")
	}

	bad := &replicate{spec: TraceSpec{Name: "neg", Kind: TraceKinetic, Seconds: -5}, seed: 9}
	if msg := bad.get(g, newSchedule); bad.trace != nil || bad.schedule != nil || msg == "" {
		t.Fatalf("negative-length trace built: %v %q", bad.trace, msg)
	}
	if msg2 := bad.get(g, newSchedule); msg2 == "" {
		t.Fatal("a failed build must fail every point of the replicate")
	}
}

// TestReplicatePointsShareScheduleAndBaselines: in a grid with
// baselines, each replicate builds one schedule, seeded by its
// ReplicateSeed, and every point of one (replicate, device, storage)
// triple carries the same baseline rows. Each point's rows are what core
// gives on the replicate's trace and schedule: the proposed runtime
// seeded by the point's RunSeed, the baselines by the ReplicateSeed.
func TestReplicatePointsShareScheduleAndBaselines(t *testing.T) {
	var docs [][]byte
	for _, workers := range []int{1, 4} {
		g := replicateGrid(t)
		g.Storages = []StorageSpec{Capacitor(3), Capacitor(4)}
		g.Baselines = true
		g.Schedule = countingSchedule(t)
		res, err := NewEngine(workers).RunContext(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if errs := res.Errs(); len(errs) != 0 {
			t.Fatal(errs)
		}
		built := map[uint64]int{}
		scheduleBuildsMu.Lock()
		for seed, n := range scheduleBuilds {
			built[seed] = n
		}
		scheduleBuildsMu.Unlock()
		if len(built) != len(g.Traces)*len(g.Seeds) {
			t.Fatalf("workers=%d: built %d schedules, want one per replicate (%d): %v", workers, len(built), len(g.Traces)*len(g.Seeds), built)
		}

		newSchedule, err := LookupSchedule(g.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		deployed, err := core.BuildDeployed(NonuniformPolicy().Build(), g.DeploySeedFor(0))
		if err != nil {
			t.Fatal(err)
		}
		triples := map[[2]int][]core.SystemRow{}
		for _, r := range res.Results {
			p := r.Point
			if built[p.ReplicateSeed] != 1 {
				t.Fatalf("workers=%d: point %d's schedule (seed %#x) built %d times", workers, p.Index, p.ReplicateSeed, built[p.ReplicateSeed])
			}
			if len(r.Rows) != 4 {
				t.Fatalf("point %d has %d rows, want ours and 3 baselines", p.Index, len(r.Rows))
			}
			key := [2]int{g.replicateOf(p.Index), g.baselineOf(p.Index)}
			if first, ok := triples[key]; ok {
				if !reflect.DeepEqual(r.Rows[1:], first) {
					t.Fatalf("point %d's baseline rows differ from its triple's first point", p.Index)
				}
				continue
			}
			triples[key] = r.Rows[1:]

			trace, err := p.Trace.Build(p.ReplicateSeed)
			if err != nil {
				t.Fatal(err)
			}
			store := p.Storage.Storage
			sc := &core.Scenario{
				Trace:    trace,
				Schedule: newSchedule(g.events(), trace.Duration(), g.classes(), p.ReplicateSeed),
				Device:   p.Device.Build(),
				Storage:  &store,
				Seed:     p.ReplicateSeed,
			}
			base, err := core.BaselineRows(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r.Rows[1:], base) {
				t.Fatalf("point %d's baseline rows are not core's on the replicate's trace and schedule", p.Index)
			}
			sc.Seed = p.RunSeed
			rep, err := core.RunProposed(context.Background(), sc, deployed,
				core.CompareConfig{Mode: p.Exit.Mode, WarmupEpisodes: p.Exit.Warmup})
			if err != nil {
				t.Fatal(err)
			}
			ours := core.ReportRow(rep)
			ours.System = "Our Approach"
			if !reflect.DeepEqual(r.Rows[0], ours) {
				t.Fatalf("point %d's own row is not core's on the replicate's trace and schedule", p.Index)
			}
		}
		if want := len(g.Traces) * len(g.Seeds) * len(g.Devices) * len(g.Storages); len(triples) != want {
			t.Fatalf("%d triples, want %d", len(triples), want)
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

// TestTripleBaselinesRunOnce: concurrent points of one (replicate,
// device, storage) triple run its baselines once and all get the same
// rows; a canceled run fails every point that asks.
func TestTripleBaselinesRunOnce(t *testing.T) {
	var deviceBuilds atomic.Int64
	g := &Grid{
		Name: "triple", BaseSeed: 5, Events: 12, Baselines: true,
		Traces: []TraceSpec{SolarTrace(600, 0.05)},
		Devices: []DeviceSpec{Device("counted", func() *mcu.Device {
			deviceBuilds.Add(1)
			return mcu.MSP432()
		})},
		Policies: []PolicySpec{NonuniformPolicy()},
		Exits:    []ExitSpec{QLearningExit(1), StaticExit()},
		Storages: []StorageSpec{Capacitor(3)},
		Seeds:    []uint64{1},
	}
	pts := g.Points()
	newSchedule, err := LookupSchedule(g.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	newReplicate := func() *replicate {
		r := &replicate{spec: pts[0].Trace, seed: pts[0].ReplicateSeed, baselines: make([]baselineRun, 1)}
		if msg := r.get(g, newSchedule); msg != "" {
			t.Fatal(msg)
		}
		return r
	}

	const callers = 8
	r := newReplicate()
	rows := make([][]core.SystemRow, callers)
	msgs := make([]string, callers)
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows[i], msgs[i] = r.baselineRows(context.Background(), g, pts[i%len(pts)])
		}()
	}
	wg.Wait()
	if n := deviceBuilds.Load(); n != 1 {
		t.Fatalf("the triple's baselines ran %d times, want once", n)
	}
	for i := range callers {
		if msgs[i] != "" || len(rows[i]) != 3 || &rows[i][0] != &rows[0][0] {
			t.Fatalf("caller %d got %d rows at %p (%q), caller 0 %d at %p", i, len(rows[i]), rows[i], msgs[i], len(rows[0]), rows[0])
		}
	}
	for i, name := range []string{"SonicNet", "SpArSeNet", "LeNet-Cifar"} {
		if rows[0][i].System != name {
			t.Fatalf("row %d is %q, want %q", i, rows[0][i].System, name)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r = newReplicate()
	for _, p := range pts {
		if got, msg := r.baselineRows(ctx, g, p); got != nil || msg != context.Canceled.Error() {
			t.Fatalf("canceled triple: %d rows, %q", len(got), msg)
		}
	}
}
