package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/exper"
)

func testSpec() *Spec {
	return &Spec{
		Name:     "t",
		BaseSeed: 7,
		Epochs:   4,
		Events:   12,
		Populations: []PopulationSpec{
			{Name: "solar-q", Count: 60, TraceVariants: 4},
			{Name: "static", Count: 40, Exit: exper.ExitSpec{Mode: 1}, TraceVariants: 4},
		},
	}
}

func runFleet(t *testing.T, s *Spec, workers, startEpoch int) (*Result, []Snapshot) {
	t.Helper()
	f, err := s.Fleet()
	if err != nil {
		t.Fatalf("Fleet: %v", err)
	}
	var emitted []Snapshot
	e := Engine{Workers: workers, StartEpoch: startEpoch, OnSnapshot: func(s Snapshot) {
		emitted = append(emitted, s)
	}}
	res, err := e.Run(context.Background(), f)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res, emitted
}

func TestSpecDefaults(t *testing.T) {
	s := &Spec{Populations: []PopulationSpec{{Count: 3}}}
	f, err := s.Fleet()
	if err != nil {
		t.Fatalf("Fleet: %v", err)
	}
	if f.Epochs != defaultEpochs || f.Events != defaultEvents || f.EventClasses != defaultEventClasses {
		t.Fatalf("defaults not applied: %+v", f)
	}
	p := f.Pops[0]
	if p.Device == nil || p.Deployed == nil {
		t.Fatal("default device/policy not resolved")
	}
	if p.Alpha != 0.2 || p.Gamma != 0.9 || p.Epsilon != 0 {
		t.Fatalf("default hyperparameters wrong: α=%g γ=%g ε=%g", p.Alpha, p.Gamma, p.Epsilon)
	}
	if len(p.Traces) != 3 { // variants clamp to count
		t.Fatalf("trace pool size %d, want 3", len(p.Traces))
	}
	if p.Storage.CapacityMJ != 6 {
		t.Fatalf("default capacitor %g mJ, want 6", p.Storage.CapacityMJ)
	}
	if got := f.SnapshotCount(); got != defaultEpochs {
		t.Fatalf("SnapshotCount = %d, want %d", got, defaultEpochs)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{},
		{Populations: []PopulationSpec{{Count: 0}}},
		{Populations: []PopulationSpec{{Count: 1, Device: "nope"}}},
		{Populations: []PopulationSpec{{Count: 1, Policy: "nope"}}},
		{Populations: []PopulationSpec{{Count: 1, Churn: []ChurnSpec{{Kind: "meteor", Prob: 0.1}}}}},
		{Populations: []PopulationSpec{{Count: 1, Churn: []ChurnSpec{{Kind: ChurnLeave, Prob: 1.5}}}}},
		{Epochs: -1, Populations: []PopulationSpec{{Count: 1}}},
		{Populations: []PopulationSpec{{Count: 1, EnergyBins: -1}}},
		{Populations: []PopulationSpec{{Count: 1, PowerBins: -2}}},
		{Populations: []PopulationSpec{{Count: 1, ConfBins: -1}}},
		{Populations: []PopulationSpec{{Count: 1, EnergyBins: 1 << 40}}},
		{Populations: []PopulationSpec{{Count: 3_000_000, EnergyBins: 20}}},
		{Populations: []PopulationSpec{{Count: 2_000_000}, {Count: 1_000_000, ConfBins: 40}}},
		{Populations: []PopulationSpec{{Count: 1, Alpha: -0.5}}},
		{Populations: []PopulationSpec{{Count: 1, Alpha: 1.5}}},
		{Populations: []PopulationSpec{{Count: 1, Gamma: 3}}},
		{Populations: []PopulationSpec{{Count: 1, Epsilon: -0.1}}},
		{Populations: []PopulationSpec{{Count: 1, Epsilon: 2}}},
		{Populations: []PopulationSpec{{Count: 1, Trace: exper.TraceSpec{Name: "x", Kind: exper.TraceSolar, Seconds: -1}}}},
		{Populations: []PopulationSpec{{Count: 1, Trace: exper.TraceSpec{Name: "x", Kind: exper.TraceKinetic, Seconds: -1}}}},
	}
	for i := range bad {
		if _, err := bad[i].Fleet(); err == nil {
			t.Errorf("spec %d: expected an error", i)
		}
	}
}

// TestWorkerCountInvariance is the determinism tentpole: the same fleet
// must produce byte-identical documents sharded over 1 and 4 workers.
func TestWorkerCountInvariance(t *testing.T) {
	r1, _ := runFleet(t, testSpec(), 1, 0)
	r4, _ := runFleet(t, testSpec(), 4, 0)
	j1, err := r1.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	j4, err := r4.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	if !bytes.Equal(j1, j4) {
		t.Fatalf("results differ across worker counts:\n1 worker: %s\n4 workers: %s", j1, j4)
	}
	if len(r1.Snapshots) != 4 {
		t.Fatalf("got %d snapshots, want 4", len(r1.Snapshots))
	}
}

// TestResumeBitIdentical mirrors exper's resume contract: a run fast-
// forwarded to StartEpoch k emits exactly the uninterrupted run's
// snapshots from k on, and its final document is byte-identical.
func TestResumeBitIdentical(t *testing.T) {
	full, fullEmitted := runFleet(t, testSpec(), 2, 0)
	if len(fullEmitted) != len(full.Snapshots) {
		t.Fatalf("full run emitted %d of %d snapshots", len(fullEmitted), len(full.Snapshots))
	}
	resumed, emitted := runFleet(t, testSpec(), 3, 2)
	if len(emitted) != 2 {
		t.Fatalf("resumed run emitted %d snapshots, want 2", len(emitted))
	}
	for i, s := range emitted {
		want, _ := json.Marshal(full.Snapshots[2+i])
		got, _ := json.Marshal(s)
		if !bytes.Equal(want, got) {
			t.Fatalf("resumed snapshot %d differs:\nwant %s\ngot  %s", i, want, got)
		}
	}
	jf, _ := full.JSON()
	jr, _ := resumed.JSON()
	if !bytes.Equal(jf, jr) {
		t.Fatal("resumed final document differs from uninterrupted run")
	}
}

func TestFleetProgresses(t *testing.T) {
	res, _ := runFleet(t, testSpec(), 0, 0)
	if len(res.Totals) != 2 {
		t.Fatalf("got %d totals", len(res.Totals))
	}
	for _, tot := range res.Totals {
		if tot.Events == 0 || tot.Processed == 0 {
			t.Fatalf("population %q processed nothing: %+v", tot.Name, tot)
		}
		if tot.AccuracyProcessed <= 0 || tot.AccuracyProcessed > 1 {
			t.Fatalf("population %q accuracy %g out of range", tot.Name, tot.AccuracyProcessed)
		}
		if tot.HarvestedMJ <= 0 || tot.IEpmJ <= 0 {
			t.Fatalf("population %q has no harvest accounting: %+v", tot.Name, tot)
		}
		var hist int64
		for _, v := range tot.ExitHist {
			hist += v
		}
		if hist != tot.Processed {
			t.Fatalf("population %q exit histogram sums to %d, processed %d", tot.Name, hist, tot.Processed)
		}
	}
	// The learning curve fields accumulate monotonically.
	var prev int64
	for _, s := range res.Snapshots {
		if s.Populations[0].CumEvents < prev {
			t.Fatal("cumulative events decreased")
		}
		prev = s.Populations[0].CumEvents
	}
}

func TestChurnDeterministicAndEffective(t *testing.T) {
	s := testSpec()
	s.Populations[0].Churn = []ChurnSpec{
		{Kind: ChurnLeave, Prob: 0.5},
		{Kind: ChurnDegrade, Prob: 0.5, Rate: 0.3},
	}
	s.Populations[1].Churn = []ChurnSpec{{Kind: ChurnJoin, Prob: 0.9}}
	r1, _ := runFleet(t, s, 1, 0)
	r4, _ := runFleet(t, s, 4, 0)
	j1, _ := r1.JSON()
	j4, _ := r4.JSON()
	if !bytes.Equal(j1, j4) {
		t.Fatal("churned fleet differs across worker counts")
	}
	if r1.Totals[0].Offline == 0 {
		t.Fatal("leave churn rule took no device-epochs offline")
	}
	if r1.Totals[1].Offline == 0 {
		t.Fatal("join churn rule took no device-epochs offline")
	}
	// Churn must change outcomes relative to the unchurned fleet.
	base, _ := runFleet(t, testSpec(), 1, 0)
	jb, _ := base.JSON()
	if bytes.Equal(j1, jb) {
		t.Fatal("churn rules had no effect")
	}
}

// TestEmpiricalPopulation runs a small population on the shared compiled
// plan and checks the worker-count invariance holds there too.
func TestEmpiricalPopulation(t *testing.T) {
	if testing.Short() {
		t.Skip("empirical population is slow")
	}
	s := &Spec{
		Name:     "emp",
		BaseSeed: 3,
		Epochs:   2,
		Events:   6,
		Samples:  32,
		Populations: []PopulationSpec{
			{Name: "emp", Count: 8, Empirical: true, TraceVariants: 2},
		},
	}
	f, err := s.Fleet()
	if err != nil {
		t.Fatalf("Fleet: %v", err)
	}
	if f.TestSet == nil || f.Pops[0].Plan == nil {
		t.Fatal("empirical population did not compile a shared plan")
	}
	r1, _ := runFleet(t, s, 1, 0)
	r2, _ := runFleet(t, s, 2, 0)
	j1, _ := r1.JSON()
	j2, _ := r2.JSON()
	if !bytes.Equal(j1, j2) {
		t.Fatal("empirical fleet differs across worker counts")
	}
	if r1.Totals[0].Processed == 0 {
		t.Fatal("empirical population processed nothing")
	}
}

func TestCancelReturnsPartial(t *testing.T) {
	s := testSpec()
	s.Epochs = 50
	f, err := s.Fleet()
	if err != nil {
		t.Fatalf("Fleet: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	e := Engine{Workers: 2, OnSnapshot: func(Snapshot) {
		n++
		if n == 2 {
			cancel()
		}
	}}
	res, err := e.Run(ctx, f)
	if err == nil {
		t.Fatal("expected a cancellation error")
	}
	if len(res.Snapshots) < 2 || len(res.Snapshots) >= 50 {
		t.Fatalf("partial result has %d snapshots", len(res.Snapshots))
	}
}

func TestSpecRoundTripsJSON(t *testing.T) {
	s := testSpec()
	s.Populations[0].Churn = []ChurnSpec{{Kind: ChurnDegrade, Prob: 0.2, Rate: 0.1, MinFrac: 0.5}}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Spec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	r1, _ := runFleet(t, s, 2, 0)
	r2, _ := runFleet(t, &back, 2, 0)
	j1, _ := r1.JSON()
	j2, _ := r2.JSON()
	if !bytes.Equal(j1, j2) {
		t.Fatal("spec does not survive a JSON round trip")
	}
}
