package batch

import (
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/multiexit"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// testDeployed builds a small deployed LeNet-EE for model tests.
func testDeployed(t testing.TB, backend core.InferBackend) *core.Deployed {
	t.Helper()
	net := multiexit.LeNetEE(tensor.NewRNG(1))
	if err := compress.Apply(net, compress.Fig1bUniform(net)); err != nil {
		t.Fatal(err)
	}
	d, err := core.NewDeployed(net, []float64{0.6, 0.7, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	d.DefaultBackend = backend
	return d
}

// testInput returns a deterministic valid input.
func testInput(seed uint64, n int) []float32 {
	rng := tensor.NewRNG(seed)
	in := make([]float32, n)
	for i := range in {
		in[i] = rng.Float32()
	}
	return in
}

// TestModelFloatMatchesPlan pins the serving answer to the compiled
// plan: class, confidence, and the per-exit profile must match direct
// Exec runs bit for bit, at every chunking.
func TestModelFloatMatchesPlan(t *testing.T) {
	d := testDeployed(t, core.BackendDefault)
	m, err := NewModel(d, core.BackendDefault, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Backend() != core.BackendPlan {
		t.Fatalf("backend = %v, want plan", m.Backend())
	}
	p, err := d.FloatPlan()
	if err != nil {
		t.Fatal(err)
	}
	ex, st := p.NewExec(), p.NewState()

	// 6 requests across a MaxBatch of 4 exercises the chunk split.
	reqs := make([]Req, 6)
	for i := range reqs {
		reqs[i] = Req{Input: testInput(uint64(i+1), m.InputLen()), Options: Options{Exit: -1}}
	}
	preds := m.InferBatch(reqs)
	for i, pred := range preds {
		if pred.Backend != "plan" {
			t.Fatalf("req %d: backend %q", i, pred.Backend)
		}
		if len(pred.ExitClasses) != m.NumExits() || len(pred.ExitConfidences) != m.NumExits() {
			t.Fatalf("req %d: exit profile lengths %d/%d, want %d",
				i, len(pred.ExitClasses), len(pred.ExitConfidences), m.NumExits())
		}
		img := tensor.FromSlice(reqs[i].Input, 3, 32, 32)
		for e := 0; e < m.NumExits(); e++ {
			ex.InferTo(st, img, e)
			if pred.ExitClasses[e] != st.Predicted() || pred.ExitConfidences[e] != st.Confidence() {
				t.Fatalf("req %d exit %d: (%d, %v) want (%d, %v)",
					i, e, pred.ExitClasses[e], pred.ExitConfidences[e], st.Predicted(), st.Confidence())
			}
		}
		last := m.NumExits() - 1
		if pred.Exit != last || pred.Class != pred.ExitClasses[last] {
			t.Fatalf("req %d: took exit %d class %d, want deepest", i, pred.Exit, pred.Class)
		}
	}
}

// TestModelExitAndThreshold covers the request options: a fixed exit
// bound and the anytime early-exit threshold.
func TestModelExitAndThreshold(t *testing.T) {
	m, err := NewModel(testDeployed(t, core.BackendDefault), core.BackendDefault, 4)
	if err != nil {
		t.Fatal(err)
	}
	in := testInput(3, m.InputLen())

	bounded := m.Infer(Req{Input: in, Options: Options{Exit: 1}})
	if len(bounded.ExitConfidences) != 2 || bounded.Exit != 1 {
		t.Fatalf("exit bound 1: profile %d exits, took %d", len(bounded.ExitConfidences), bounded.Exit)
	}

	// A permissive threshold takes the first exit.
	eager := m.Infer(Req{Input: in, Options: Options{Exit: -1, Threshold: 1e-9}})
	if eager.Exit != 0 || eager.Class != eager.ExitClasses[0] {
		t.Fatalf("tiny threshold: took exit %d", eager.Exit)
	}
	// An unreachable threshold falls back to the bound.
	deep := m.Infer(Req{Input: in, Options: Options{Exit: -1, Threshold: 1}})
	if deep.Exit != m.NumExits()-1 && deep.Confidence < 1 {
		t.Fatalf("threshold 1: took exit %d with confidence %v", deep.Exit, deep.Confidence)
	}
}

// TestModelInt8AndLegacy checks that a deployment naming "int8" serves
// on int8fast and one naming "legacy" on the plan, each agreeing with
// its single-image reference.
func TestModelInt8AndLegacy(t *testing.T) {
	// int8: a deployment whose default names "int8" serves on the
	// integer backend, and its pinned-scale plan is the reference.
	b, err := core.ParseBackend("int8")
	if err != nil {
		t.Fatal(err)
	}
	d := testDeployed(t, b)
	m, err := NewModel(d, core.BackendDefault, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Backend() != core.BackendInt8Fast {
		t.Fatalf("backend = %v, want int8fast (deployment default)", m.Backend())
	}
	ip, err := d.Int8FastPlanPinned()
	if err != nil {
		t.Fatal(err)
	}
	ex, st := ip.NewExec(), ip.NewState()
	in := testInput(5, m.InputLen())
	pred := m.Infer(Req{Input: in, Options: Options{Exit: -1}})
	if pred.Backend != "int8fast" {
		t.Fatalf("backend label %q", pred.Backend)
	}
	ex.InferTo(st, tensor.FromSlice(in, len(in)), m.NumExits()-1)
	if pred.Class != st.Predicted() {
		t.Fatalf("int8 class %d, want %d", pred.Class, st.Predicted())
	}

	// legacy: an alias of the plan, whose answer is the layer walk's.
	lb, err := core.ParseBackend("legacy")
	if err != nil {
		t.Fatal(err)
	}
	d2 := testDeployed(t, lb)
	lm, err := NewModel(d2, core.BackendDefault, 4)
	if err != nil {
		t.Fatal(err)
	}
	if lm.Backend() != core.BackendPlan {
		t.Fatalf("backend = %v, want plan", lm.Backend())
	}
	lp := lm.Infer(Req{Input: in, Options: Options{Exit: -1}})
	if lp.Backend != "plan" {
		t.Fatalf("backend label %q", lp.Backend)
	}
	want := d2.Net.InferTo(tensor.FromSlice(in, 3, 32, 32), lm.NumExits()-1)
	if lp.Class != want.Predicted() || lp.Confidence != want.Confidence() {
		t.Fatalf("legacy (%d, %v), want (%d, %v)", lp.Class, lp.Confidence, want.Predicted(), want.Confidence())
	}
}

// TestModelServesAvgPoolOnPlan: a deployment with average pools in its
// trunk and a branch serves on the float plan, every exit's answer
// equal to the layer walk's, and int8fast, which has no average-pool
// step, refuses it.
func TestModelServesAvgPoolOnPlan(t *testing.T) {
	net := multiexit.LeNetEE(tensor.NewRNG(3))
	for _, seqs := range [][]*nn.Sequential{net.Segments, net.Branches} {
		for _, seq := range seqs {
			for i, l := range seq.Layers {
				if mp, ok := l.(*nn.MaxPool2D); ok {
					seq.Layers[i] = nn.NewAvgPool2D(mp.Name(), mp.Kernel, mp.Stride)
				}
			}
		}
	}
	d, err := core.NewDeployed(net, []float64{0.6, 0.7, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(d, core.BackendDefault, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Backend() != core.BackendPlan {
		t.Fatalf("backend = %v, want plan", m.Backend())
	}
	in := testInput(11, m.InputLen())
	pred := m.Infer(Req{Input: in, Options: Options{Exit: -1}})
	img := tensor.FromSlice(in, 3, 32, 32)
	for e := 0; e < m.NumExits(); e++ {
		want := net.InferTo(img, e)
		if pred.ExitClasses[e] != want.Predicted() || pred.ExitConfidences[e] != want.Confidence() {
			t.Fatalf("exit %d: (%d, %v), layer walk (%d, %v)",
				e, pred.ExitClasses[e], pred.ExitConfidences[e], want.Predicted(), want.Confidence())
		}
	}
	if _, err := NewModel(d, core.BackendInt8Fast, 4); err == nil || !strings.Contains(err.Error(), "avgpool") {
		t.Fatalf("int8fast on an avgpool deployment: err = %v, want an avgpool error", err)
	}
}

// TestModelInt8Fast checks the packed-weight fast backend serves
// through the batched lane path and agrees bit-for-bit with its own
// single-image executor — batching composition must not change any
// image's answer.
func TestModelInt8Fast(t *testing.T) {
	d := testDeployed(t, core.BackendDefault)
	m, err := NewModel(d, core.BackendInt8Fast, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Backend() != core.BackendInt8Fast {
		t.Fatalf("backend = %v, want int8fast", m.Backend())
	}
	fp, err := d.Int8FastPlanPinned()
	if err != nil {
		t.Fatal(err)
	}
	ex, st := fp.NewExec(), fp.NewState()
	reqs := make([]Req, 6)
	for i := range reqs {
		reqs[i] = Req{Input: testInput(uint64(i), m.InputLen()), Options: Options{Exit: -1}}
	}
	preds := m.InferBatch(reqs)
	for i, pred := range preds {
		if pred.Backend != "int8fast" {
			t.Fatalf("req %d: backend label %q", i, pred.Backend)
		}
		ex.InferTo(st, tensor.FromSlice(reqs[i].Input, len(reqs[i].Input)), m.NumExits()-1)
		if pred.Class != st.Predicted() || pred.Confidence != st.Confidence() {
			t.Fatalf("req %d: batched (%d, %v), want (%d, %v)",
				i, pred.Class, pred.Confidence, st.Predicted(), st.Confidence())
		}
	}
}

// TestModelValidate is the serving-boundary bad-input table: every
// malformed request must come back as an error naming the problem,
// never reach a panic in the nn layers.
func TestModelValidate(t *testing.T) {
	m, err := NewModel(testDeployed(t, core.BackendDefault), core.BackendDefault, 4)
	if err != nil {
		t.Fatal(err)
	}
	good := testInput(1, m.InputLen())
	nan := append([]float32(nil), good...)
	nan[7] = float32(nanBits())
	inf := append([]float32(nil), good...)
	inf[0] = float32(1e38)
	inf[0] *= 10 // overflows to +Inf at runtime

	cases := []struct {
		name string
		req  Req
		want string
	}{
		{"short input", Req{Input: good[:100]}, "want 3072"},
		{"empty input", Req{Input: nil}, "want 3072"},
		{"NaN value", Req{Input: nan, Options: Options{Exit: -1}}, "finite"},
		{"Inf value", Req{Input: inf, Options: Options{Exit: -1}}, "finite"},
		{"exit too deep", Req{Input: good, Options: Options{Exit: 3}}, "out of range"},
		{"bad threshold", Req{Input: good, Options: Options{Threshold: 1.5}}, "threshold"},
		{"NaN threshold", Req{Input: good, Options: Options{Threshold: nanBits()}}, "threshold"},
	}
	for _, tc := range cases {
		err := m.Validate(&tc.req)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	ok := Req{Input: good, Options: Options{Exit: -1, Threshold: 0.5}}
	if err := m.Validate(&ok); err != nil {
		t.Errorf("valid request rejected: %v", err)
	}
}

// nanBits builds a float64 NaN without the math import dance.
func nanBits() float64 {
	z := 0.0
	return z / z
}

// TestModelRejectsNilAndUnplannable covers constructor errors.
func TestModelRejectsNilAndUnplannable(t *testing.T) {
	if _, err := NewModel(nil, core.BackendDefault, 0); err == nil {
		t.Fatal("nil deployment accepted")
	}
}

// TestModelAnswerIndependentOfBatchCompany: a request's prediction must
// not depend on which other requests shared its micro-batch.
func TestModelAnswerIndependentOfBatchCompany(t *testing.T) {
	m, err := NewModel(testDeployed(t, core.BackendDefault), core.BackendDefault, 8)
	if err != nil {
		t.Fatal(err)
	}
	target := Req{Input: testInput(9, m.InputLen()), Options: Options{Exit: -1}}
	alone := m.Infer(target)
	company := make([]Req, 5)
	company[2] = target
	for i := range company {
		if i != 2 {
			company[i] = Req{Input: testInput(uint64(40+i), m.InputLen()), Options: Options{Exit: i % m.NumExits()}}
		}
	}
	preds := m.InferBatch(company)
	got := preds[2]
	if got.Class != alone.Class || got.Confidence != alone.Confidence || got.Exit != alone.Exit {
		t.Fatalf("batched (%d, %v, exit %d) differs from solo (%d, %v, exit %d)",
			got.Class, got.Confidence, got.Exit, alone.Class, alone.Confidence, alone.Exit)
	}
	for e := range got.ExitConfidences {
		if got.ExitConfidences[e] != alone.ExitConfidences[e] {
			t.Fatalf("exit %d confidence drifted under batching", e)
		}
	}
}

// TestModelGeometry sanity-checks the shape accessors.
func TestModelGeometry(t *testing.T) {
	m, err := NewModel(testDeployed(t, core.BackendDefault), core.BackendDefault, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, h, w := m.InputShape()
	if c != 3 || h != 32 || w != 32 || m.InputLen() != 3072 {
		t.Fatalf("shape %dx%dx%d len %d", c, h, w, m.InputLen())
	}
	if m.MaxBatch() != DefaultMaxBatch {
		t.Fatalf("default max batch = %d", m.MaxBatch())
	}
	if m.NumExits() != 3 {
		t.Fatalf("exits = %d", m.NumExits())
	}
}
