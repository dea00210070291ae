package exper

import (
	"bytes"
	"context"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
)

// testGrid is a small but non-trivial grid: 2 traces × 2 storages ×
// 2 seeds = 8 points, with baselines, short traces, and few events so it
// stays fast under -race.
func testGrid() *Grid {
	return &Grid{
		Name:      "determinism-test",
		BaseSeed:  7,
		Events:    40,
		Baselines: true,
		Traces: []TraceSpec{
			SolarTrace(1800, 0.04),
			KineticTrace(1800, 0.9),
		},
		Devices:  []DeviceSpec{MSP432Device()},
		Policies: []PolicySpec{NonuniformPolicy()},
		Exits:    []ExitSpec{QLearningExit(2)},
		Storages: []StorageSpec{Capacitor(3), Capacitor(6)},
		Seeds:    []uint64{1, 2},
	}
}

// TestEngineDeterministicAcrossWorkerCounts is the engine's contract
// test: the aggregated, serialized output of a grid run must be byte
// identical at workers=1 and workers=8.
func TestEngineDeterministicAcrossWorkerCounts(t *testing.T) {
	grid := testGrid()

	r1, err := NewEngine(1).RunContext(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := NewEngine(8).RunContext(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if errs := r1.Errs(); len(errs) != 0 {
		t.Fatalf("workers=1 run had point errors: %v", errs)
	}

	j1, err := r1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j8, err := r8.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j8) {
		t.Fatalf("workers=1 and workers=8 JSON differ:\n--- w1 ---\n%s\n--- w8 ---\n%s", j1, j8)
	}
	if a1, a8 := r1.AggTable(), r8.AggTable(); a1 != a8 {
		t.Fatalf("aggregate tables differ:\n--- w1 ---\n%s\n--- w8 ---\n%s", a1, a8)
	}
}

func TestGridEnumeration(t *testing.T) {
	grid := testGrid()
	pts := grid.Points()
	if len(pts) != grid.Size() || len(pts) != 8 {
		t.Fatalf("got %d points, Size()=%d, want 8", len(pts), grid.Size())
	}
	seen := map[uint64]bool{}
	for i, p := range pts {
		if p.Index != i {
			t.Fatalf("point %d has Index %d", i, p.Index)
		}
		if seen[p.RunSeed] {
			t.Fatalf("duplicate RunSeed %#x at point %d", p.RunSeed, i)
		}
		seen[p.RunSeed] = true
	}
	// Enumeration is row-major with seeds innermost.
	if pts[0].Seed != 1 || pts[1].Seed != 2 {
		t.Fatalf("seeds not innermost: %d, %d", pts[0].Seed, pts[1].Seed)
	}
	if pts[0].Storage.Name == pts[2].Storage.Name {
		t.Fatalf("storage did not advance at point 2")
	}
}

func TestDeriveSeedStability(t *testing.T) {
	// The derivation is part of the reproducibility contract: same
	// inputs, same stream — across processes and PRs.
	if a, b := deriveSeed(7, 3, 1), deriveSeed(7, 3, 1); a != b {
		t.Fatalf("deriveSeed not a pure function: %#x vs %#x", a, b)
	}
	if deriveSeed(7, 3, 1) == deriveSeed(7, 4, 1) {
		t.Fatal("index does not separate streams")
	}
	if deriveSeed(7, 3, 1) == deriveSeed(8, 3, 1) {
		t.Fatal("base seed does not separate streams")
	}
	if deriveSeed(7, 3, 1) == deriveSeed(7, 3, 2) {
		t.Fatal("replicate seed does not separate streams")
	}
	if deriveSeed(0, 0, 0) == 0 {
		t.Fatal("derived seed must never be zero (RNG remaps 0)")
	}
}

func TestEngineRecordsPointErrors(t *testing.T) {
	grid := testGrid()
	// An unknown trace kind is rejected by Validate up front; a
	// registered file-backed trace whose file is missing passes
	// validation (the file is only opened per point) and exercises the
	// point-level error path.
	const missing = "exper-test-missing-file"
	if _, err := LookupTrace(missing); err != nil {
		if err := RegisterTrace(missing, energy.TraceFromCSV("/does/not/exist.csv")); err != nil {
			t.Fatal(err)
		}
	}
	grid.Traces = []TraceSpec{RegisteredTrace(missing), SolarTrace(1800, 0.04)}
	grid.Baselines = false
	grid.Seeds = []uint64{1}
	grid.Storages = grid.Storages[:1]
	res, err := NewEngine(4).RunContext(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errs()) != 1 {
		t.Fatalf("want 1 point error, got %v", res.Errs())
	}
	// The healthy point still produced rows.
	var rows int
	for _, r := range res.Results {
		rows += len(r.Rows)
	}
	if rows != 1 {
		t.Fatalf("want 1 surviving row, got %d", rows)
	}
}

func TestAggregateGroupsAcrossSeeds(t *testing.T) {
	grid := testGrid()
	res, err := NewEngine(0).RunContext(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Aggregate()
	// 4 scenarios (2 traces × 2 storages) × 4 systems (ours + 3 baselines).
	if len(rows) != 16 {
		t.Fatalf("want 16 aggregate rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.IEpmJ.N() != len(grid.Seeds) {
			t.Fatalf("row %s/%s aggregates %d values, want %d seeds",
				r.Trace, r.System, r.IEpmJ.N(), len(grid.Seeds))
		}
	}
	if !sort.SliceIsSorted(rows, func(a, b int) bool { return rows[a].SortKey() < rows[b].SortKey() }) {
		t.Fatal("aggregate rows are not sorted by (scenario, system) key")
	}
}

func TestValidateRejectsEmptyAxes(t *testing.T) {
	grid := testGrid()
	grid.Devices = nil
	if _, err := NewEngine(1).RunContext(context.Background(), grid); err == nil {
		t.Fatal("expected validation error for empty device axis")
	}
}

func TestPaperCompareGridMatchesCompareSystems(t *testing.T) {
	// The engine's one-point paper grid must agree with driving core
	// directly — the engine adds scheduling, not semantics. The reference
	// scenario takes its trace and schedule from the point's
	// ReplicateSeed and its runtime seed from RunSeed; a one-point grid's
	// point is its own replicate, so the two seeds are equal and the
	// baselines' draws match too.
	grid := PaperCompareGrid(42, 2, core.PolicyQLearning)
	grid.Events = 60
	grid.Traces = []TraceSpec{SolarTrace(1800, 0.04)}
	res, err := NewEngine(3).RunContext(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if errs := res.Errs(); len(errs) != 0 {
		t.Fatal(errs)
	}
	if len(res.Results) != 1 || len(res.Results[0].Rows) != 4 {
		t.Fatalf("want 1 point × 4 systems, got %+v", res.Results)
	}

	p := grid.Points()[0]
	if p.ReplicateSeed != p.RunSeed {
		t.Fatalf("one-point grid: replicate seed %#x, run seed %#x", p.ReplicateSeed, p.RunSeed)
	}
	newSchedule, err := LookupSchedule(grid.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := p.Trace.Build(p.ReplicateSeed)
	if err != nil {
		t.Fatal(err)
	}
	deployed, err := core.BuildDeployed(p.Policy.Build(), p.DeploySeed)
	if err != nil {
		t.Fatal(err)
	}
	store := p.Storage.Storage
	sc := &core.Scenario{
		Trace:    trace,
		Schedule: newSchedule(grid.events(), trace.Duration(), grid.classes(), p.ReplicateSeed),
		Device:   p.Device.Build(),
		Storage:  &store,
		Seed:     p.RunSeed,
	}
	direct, err := core.CompareSystems(context.Background(), sc, deployed,
		core.CompareConfig{Mode: p.Exit.Mode, WarmupEpisodes: p.Exit.Warmup})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Results[0].Rows, direct) {
		t.Fatalf("grid rows differ from CompareSystems:\n%+v\n%+v", res.Results[0].Rows, direct)
	}
}
