package ehinfer

// Façade-level integration tests: the full public API exercised the way
// the README's quickstart does.

import (
	"context"
	"math"
	"testing"
)

func TestQuickstartPath(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system test skipped in -short")
	}
	sc := DefaultScenario(1)
	d, err := BuildDeployed(Fig1bNonuniform(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.WeightBytes > PaperSTargetBytes {
		t.Fatalf("deployed weights %d B exceed the paper's 16 KB budget", d.WeightBytes)
	}
	rows, err := NewSession().CompareSystems(context.Background(), sc, d, CompareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].System != "Our Approach" {
		t.Fatalf("row 0 is %q", rows[0].System)
	}
	if !(rows[0].IEpmJ > rows[1].IEpmJ && rows[0].IEpmJ > rows[2].IEpmJ && rows[0].IEpmJ > rows[3].IEpmJ) {
		t.Fatal("our approach must lead IEpmJ (the paper's headline result)")
	}
}

func TestFacadeConstructors(t *testing.T) {
	net := LeNetEE(NewRNG(2))
	if net.NumExits() != 3 {
		t.Fatal("LeNetEE must have 3 exits")
	}
	if _, err := NewSurrogate(net, nil); err != nil {
		t.Fatal(err)
	}
	if p := UniformPolicy(net, 0.5, 4, 4); len(p.Layers) != 11 {
		t.Fatal("uniform policy must cover the 11 compressible layers")
	}
	tr := SyntheticSolarTrace(SolarConfig{Seconds: 100, Seed: 1})
	if tr.Duration() != 100 {
		t.Fatal("trace duration wrong")
	}
	kt := SyntheticKineticTrace(KineticConfig{Seconds: 100, Seed: 1})
	if kt.Duration() != 100 {
		t.Fatal("kinetic trace duration wrong")
	}
	if s := UniformSchedule(10, 100, 10, 1); s.Len() != 10 {
		t.Fatal("schedule length wrong")
	}
	if s := BurstySchedule(10, 100, 10, 3, 1); s.Len() != 10 {
		t.Fatal("bursty schedule length wrong")
	}
	if MSP432().EnergyPerMFLOP != 1.5 {
		t.Fatal("device constant wrong")
	}
	if len(AllBaselines()) != 3 {
		t.Fatal("baseline count wrong")
	}
}

func TestFacadeTrainingPath(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short")
	}
	train, test := SynthCIFAR(SynthConfig{Seed: 21, NoiseStd: 0.03, Jitter: 0.05}, 150, 60)
	net := LeNetEE(NewRNG(31))
	if _, err := TrainNetwork(net, train, TrainConfig{Epochs: 2, BatchSize: 25, Seed: 31}); err != nil {
		t.Fatal(err)
	}
	accs := EvalExits(net, test)
	if len(accs) != 3 {
		t.Fatal("per-exit accuracies missing")
	}
	for _, a := range accs {
		if math.IsNaN(a) || a < 0 || a > 1 {
			t.Fatalf("implausible accuracy %v", a)
		}
	}
}

func TestFacadeSearchPath(t *testing.T) {
	if testing.Short() {
		t.Skip("search test skipped in -short")
	}
	sc := DefaultScenario(3)
	net := LeNetEE(NewRNG(3))
	sur, err := NewSurrogate(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewSession().SearchCompressionRandom(context.Background(), net, sur, SearchConfig{
		Episodes: 25, Trace: sc.Trace, Schedule: sc.Schedule, Storage: sc.Storage, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Episodes != 25 {
		t.Fatalf("episodes %d", res.Episodes)
	}
}

func TestFacadeBaselineRun(t *testing.T) {
	sc := DefaultScenario(4)
	rep, err := RunBaseline(AllBaselines()[2], sc, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events() != 500 {
		t.Fatalf("events %d", rep.Events())
	}
	if rep.System != "LeNet-Cifar" {
		t.Fatalf("system %q", rep.System)
	}
}

func TestIncrementalAPIRoundTrip(t *testing.T) {
	net := LeNetEE(NewRNG(5))
	img := NewRNGImage(6)
	st := net.InferTo(img, 0)
	if c := st.Confidence(); c < 0 || c > 1 {
		t.Fatalf("confidence %v", c)
	}
	st2 := net.Resume(st, 2)
	direct := net.InferTo(img, 2)
	if st2.Logits.L2Distance(direct.Logits) > 1e-4 {
		t.Fatal("facade incremental inference diverges from direct")
	}
}

// NewRNGImage builds a random test image through the public tensor API.
func NewRNGImage(seed uint64) *Tensor {
	rng := NewRNG(seed)
	img := make([]float32, 3*32*32)
	for i := range img {
		img[i] = rng.Float32()
	}
	t, err := FromImageData(img)
	if err != nil {
		panic(err)
	}
	return t
}
