package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/multiexit"
	"repro/internal/nn"
	"repro/internal/plan"
	"repro/internal/tensor"
)

func TestParseBackend(t *testing.T) {
	cases := map[string]InferBackend{
		"": BackendDefault, "plan": BackendPlan, "float32": BackendPlan,
		"legacy": BackendPlan, "int8": BackendInt8Fast, "int8fast": BackendInt8Fast,
	}
	for name, want := range cases {
		got, err := ParseBackend(name)
		if err != nil || got != want {
			t.Fatalf("ParseBackend(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseBackend("cuda"); err == nil {
		t.Fatal("expected error for unknown backend")
	}
	if BackendPlan.String() != "plan" || BackendInt8Fast.String() != "int8fast" {
		t.Fatal("backend names drifted from the registry")
	}
	if BackendDefault.Resolve() != BackendPlan || BackendInt8Fast.Resolve() != BackendInt8Fast {
		t.Fatal("Resolve must map only the unset sentinel to the plan backend")
	}
}

// TestInt8BackendUnavailableErrors verifies that an empirical runtime
// on a deployment no plan can compile returns an error on either
// backend: an int8 request never silently runs float arithmetic, and a
// float request has no second executor to fall back to.
func TestInt8BackendUnavailableErrors(t *testing.T) {
	// A trunk with no conv layer defeats plan.InferGeometry, so neither
	// backend can compile this deployment.
	fc := nn.NewDense("fc", 12, 4)
	fc.Final = true
	net := &multiexit.Network{
		Segments: []*nn.Sequential{nn.NewSequential("seg0", nn.NewFlatten("flat"))},
		Branches: []*nn.Sequential{nn.NewSequential("branch0", fc)},
		Classes:  4,
	}
	accs := []float64{0.5}
	d, err := NewDeployed(net, accs)
	if err != nil {
		t.Fatal(err)
	}
	_, test := dataset.TrainTest(dataset.SynthConfig{Seed: 1}, 2, 4)
	_, err = NewRuntime(d, RuntimeConfig{
		TestSet: test, Backend: BackendInt8Fast, SkipFitCheck: true,
	})
	if err == nil {
		t.Fatal("int8 backend on an uncompilable deployment must error, not fall back to float")
	}
	_, err = NewRuntime(d, RuntimeConfig{
		TestSet: test, Backend: BackendPlan, SkipFitCheck: true,
	})
	if err == nil {
		t.Fatal("plan backend on an uncompilable deployment must error")
	}
}

// empiricalSetup builds a deployed network plus a scenario whose events
// carry real samples.
func empiricalSetup(t *testing.T, seed uint64) (*Deployed, *Scenario, *dataset.Set) {
	t.Helper()
	_, test := dataset.TrainTest(dataset.SynthConfig{Seed: seed}, 10, 60)
	net := multiexit.LeNetEE(tensor.NewRNG(seed))
	accs := multiexit.EvalExits(net, test)
	d, err := NewDeployed(net, accs)
	if err != nil {
		t.Fatal(err)
	}
	sc := smallScenario(seed)
	byClass := make([][]int, 10)
	for i, s := range test.Samples {
		byClass[s.Label] = append(byClass[s.Label], i)
	}
	if err := sc.Schedule.AttachSamples(byClass, seed); err != nil {
		t.Fatal(err)
	}
	return d, sc, test
}

// runEmpirical executes one empirical episode on the given backend.
func runEmpirical(t *testing.T, d *Deployed, sc *Scenario, test *dataset.Set, b InferBackend) (*Runtime, *metrics.Report) {
	t.Helper()
	rt, err := NewRuntime(d, RuntimeConfig{
		Mode: PolicyQLearning, Storage: sc.Storage, Seed: sc.Seed, TestSet: test,
		Backend: b, SkipFitCheck: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run(sc.Trace, sc.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	return rt, rep
}

// avgPoolLeNet returns LeNet-EE with every max-pool, in trunk and
// branch alike, replaced by an average pool of the same window.
func avgPoolLeNet(seed uint64) *multiexit.Network {
	net := multiexit.LeNetEE(tensor.NewRNG(seed))
	for _, seqs := range [][]*nn.Sequential{net.Segments, net.Branches} {
		for _, seq := range seqs {
			for i, l := range seq.Layers {
				if mp, ok := l.(*nn.MaxPool2D); ok {
					seq.Layers[i] = nn.NewAvgPool2D(mp.Name(), mp.Kernel, mp.Stride)
				}
			}
		}
	}
	return net
}

// TestBackendPlanMatchesLegacy is the integration half of the plan
// parity gate: a full empirical episode (Q-learning decisions, waits,
// incremental refinement) on the compiled plan reports the same at
// worker counts 1 and 4, and every processed event's correctness is
// the layer walk's (multiexit.Network.InferTo) at the exit it took. It
// runs LeNet-EE and a variant whose pools average.
func TestBackendPlanMatchesLegacy(t *testing.T) {
	if testing.Short() {
		t.Skip("empirical test skipped in -short")
	}
	d, sc, test := empiricalSetup(t, 97)
	avg := avgPoolLeNet(97)
	dAvg, err := NewDeployed(avg, multiexit.EvalExits(avg, test))
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*Deployed{"maxpool": d, "avgpool": dAvg} {
		var reps [2]*metrics.Report
		for i, workers := range []int{1, 4} {
			prev := tensor.SetWorkers(workers)
			var rt *Runtime
			rt, reps[i] = runEmpirical(t, d, sc, test, BackendPlan)
			tensor.SetWorkers(prev)
			if rt.Backend() != BackendPlan {
				t.Fatalf("%s: runtime runs %v, want plan", name, rt.Backend())
			}
		}
		if !reflect.DeepEqual(reps[0], reps[1]) {
			t.Fatalf("%s: plan-backend report differs between 1 and 4 workers", name)
		}
		if reps[0].ProcessedCount() == 0 {
			t.Fatalf("%s: episode processed nothing — parity check is vacuous", name)
		}
		for i, out := range reps[0].Outcomes {
			if !out.Processed {
				continue
			}
			s := test.Samples[sc.Schedule.Events[i].SampleIndex]
			if want := d.Net.InferTo(s.Image, out.Exit).Predicted() == s.Label; out.Correct != want {
				t.Fatalf("%s: event %d at exit %d: correct %v, layer walk says %v", name, i, out.Exit, out.Correct, want)
			}
		}
	}
}

// TestBackendInt8Runs checks the "int8" name selects the integer
// backend: its empirical episode runs on int8fast and reports exactly
// what a run that names int8fast reports.
func TestBackendInt8Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("empirical test skipped in -short")
	}
	b, err := ParseBackend("int8")
	if err != nil {
		t.Fatal(err)
	}
	d, sc, test := empiricalSetup(t, 53)
	rt, rep := runEmpirical(t, d, sc, test, b)
	if rt.Backend() != BackendInt8Fast {
		t.Fatalf("int8 runtime runs %v, want int8fast", rt.Backend())
	}
	if rep.ProcessedCount() == 0 {
		t.Fatal("int8 episode processed nothing")
	}
	if _, fast := runEmpirical(t, d, sc, test, BackendInt8Fast); !reflect.DeepEqual(rep, fast) {
		t.Fatal(`a run naming "int8" reports differently from one naming "int8fast"`)
	}
}

// TestBackendInt8FastRuns checks the packed-weight fast backend
// completes an empirical episode and produces a structurally sane
// report.
func TestBackendInt8FastRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("empirical test skipped in -short")
	}
	d, sc, test := empiricalSetup(t, 53)
	rt, rep := runEmpirical(t, d, sc, test, BackendInt8Fast)
	if rt.Backend() != BackendInt8Fast {
		t.Fatalf("int8-fast runtime fell back to %v", rt.Backend())
	}
	if rep.ProcessedCount() == 0 {
		t.Fatal("int8-fast episode processed nothing")
	}
}

// TestPinnedPlansConcurrentFirstUse hammers the deployment's lazy plan
// caches from many goroutines at once — the serving layer's access
// pattern when a burst of first requests race target creation. Run
// under -race this pins the once-guarded compile; every caller must see
// the same compiled plan.
func TestPinnedPlansConcurrentFirstUse(t *testing.T) {
	d := testDeployed(t, 7)
	const g = 16
	var wg sync.WaitGroup
	float := make([]*plan.Plan, g)
	fast := make([]*plan.Plan, g)
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pp, err := d.FloatPlan()
			if err != nil {
				t.Errorf("FloatPlan: %v", err)
			}
			pf, err := d.Int8FastPlanPinned()
			if err != nil {
				t.Errorf("Int8FastPlanPinned: %v", err)
			}
			float[i], fast[i] = pp, pf
		}(i)
	}
	wg.Wait()
	for i := 1; i < g; i++ {
		if float[i] != float[0] || fast[i] != fast[0] {
			t.Fatal("plan caches handed out different plans across racing first uses")
		}
	}
	if !fast[0].Int8() || float[0].Int8() {
		t.Fatal("cached plan flags wrong")
	}
}

// TestFloatPlanCachedOnDeployed verifies plan compilation is memoized on
// the deployment (one compile per deployment key, as the experiment
// engine's DeployCache shares Deployed values across runs).
func TestFloatPlanCachedOnDeployed(t *testing.T) {
	d := testDeployed(t, 3)
	p1, err := d.FloatPlan()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := d.FloatPlan()
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("FloatPlan recompiled instead of returning the cached plan")
	}
}

// TestInt8CalibrationOverride verifies a caller-supplied calibration set
// is used instead of the test-set fallback.
func TestInt8CalibrationOverride(t *testing.T) {
	d, sc, test := empiricalSetup(t, 11)
	rng := tensor.NewRNG(99)
	calib := make([]*tensor.Tensor, 4)
	for i := range calib {
		calib[i] = tensor.New(3, 32, 32)
		tensor.FillUniform(calib[i], rng, 0, 1)
	}
	rt, err := NewRuntime(d, RuntimeConfig{
		Mode: PolicyStaticLUT, Storage: sc.Storage, Seed: sc.Seed, TestSet: test,
		Backend: BackendInt8Fast, Calibration: calib, SkipFitCheck: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Backend() != BackendInt8Fast {
		t.Fatalf("int8 runtime fell back to %v", rt.Backend())
	}
	if _, err := rt.Run(sc.Trace, sc.Schedule); err != nil {
		t.Fatal(err)
	}
}
