package plan

import (
	"fmt"
	"testing"

	"repro/internal/compress"
	"repro/internal/multiexit"
	"repro/internal/tensor"
)

// testImages returns a deterministic batch of input images.
func testImages(n int, seed uint64) []*tensor.Tensor {
	rng := tensor.NewRNG(seed)
	imgs := make([]*tensor.Tensor, n)
	for i := range imgs {
		img := tensor.New(3, 32, 32)
		tensor.FillUniform(img, rng, 0, 1)
		imgs[i] = img
	}
	return imgs
}

// policies returns the compression settings the parity test sweeps: the
// identity, the paper's uniform reference (activation quantization on),
// and the nonuniform reference (mixed bitwidths + pruning).
func policies(net *multiexit.Network) map[string]*compress.Policy {
	return map[string]*compress.Policy{
		"full-precision": compress.FullPrecision(net),
		"fig1b-uniform":  compress.Fig1bUniform(net),
		"nonuniform":     compress.Fig1bNonuniform(),
	}
}

// TestInferGeometry checks geometry inference on the paper architecture.
func TestInferGeometry(t *testing.T) {
	g, err := InferGeometry(multiexit.LeNetEE(nil))
	if err != nil {
		t.Fatal(err)
	}
	if g != (Geometry{C: 3, H: 32, W: 32}) {
		t.Fatalf("geometry = %+v", g)
	}
}

// TestFloatParity is the tentpole's gate: plan-based InferTo/Resume
// logits must be bit-identical to the legacy layer walk across all
// exits, worker counts {1, 4}, and after compression policies are
// applied.
func TestFloatParity(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for name := range map[string]bool{"full-precision": true, "fig1b-uniform": true, "nonuniform": true} {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, name), func(t *testing.T) {
				prev := tensor.SetWorkers(workers)
				defer tensor.SetWorkers(prev)

				net := multiexit.LeNetEE(tensor.NewRNG(1))
				if err := compress.Apply(net, policies(net)[name]); err != nil {
					t.Fatal(err)
				}
				geom, err := InferGeometry(net)
				if err != nil {
					t.Fatal(err)
				}
				p, err := Compile(net, geom)
				if err != nil {
					t.Fatal(err)
				}
				ex := p.NewExec()
				st := p.NewState()

				for _, img := range testImages(4, 7) {
					// Direct inference to every exit.
					for exit := 0; exit < net.NumExits(); exit++ {
						want := net.InferTo(img, exit)
						ex.InferTo(st, img, exit)
						assertLogitsEqual(t, st, want, fmt.Sprintf("InferTo exit %d", exit))
					}
					// Incremental: start at exit 0, resume one exit at a
					// time, comparing the suspended-state chain.
					want := net.InferTo(img, 0)
					ex.InferTo(st, img, 0)
					assertLogitsEqual(t, st, want, "resume chain start")
					for exit := 1; exit < net.NumExits(); exit++ {
						want = net.Resume(want, exit)
						ex.Resume(st, exit)
						assertLogitsEqual(t, st, want, fmt.Sprintf("Resume to exit %d", exit))
					}
					// Skip-ahead resume (0 → last) as the runtime does when
					// it continues past multiple exits at once.
					if n := net.NumExits(); n > 2 {
						wantSkip := net.Resume(net.InferTo(img, 0), n-1)
						ex.InferTo(st, img, 0)
						ex.Resume(st, n-1)
						assertLogitsEqual(t, st, wantSkip, "skip-ahead resume")
					}
				}
			})
		}
	}
}

// assertLogitsEqual compares a plan state against a layer-walk state bit
// for bit: logits, predicted class, and confidence.
func assertLogitsEqual(t *testing.T, got *State, want *multiexit.State, ctx string) {
	t.Helper()
	if len(got.Logits()) != want.Logits.Len() {
		t.Fatalf("%s: logit count %d vs %d", ctx, len(got.Logits()), want.Logits.Len())
	}
	for i, v := range got.Logits() {
		if v != want.Logits.Data[i] {
			t.Fatalf("%s: logit[%d] = %x, want %x (plan output must be bit-identical)",
				ctx, i, v, want.Logits.Data[i])
		}
	}
	if got.Predicted() != want.Predicted() {
		t.Fatalf("%s: predicted %d vs %d", ctx, got.Predicted(), want.Predicted())
	}
	if gc, wc := got.Confidence(), want.Confidence(); gc != wc {
		t.Fatalf("%s: confidence %v vs %v", ctx, gc, wc)
	}
}

// TestConfidenceStaysInUnitRange feeds uniform and one-hot-like logits
// to the plan's LogitsConfidence and to the layer walk's
// State.Confidence. Both must stay in [0, 1] and agree bit for bit: a
// uniform row of 3 or 10 classes rounds each probability up past
// 1/classes, which once made the confidence slightly negative.
func TestConfidenceStaysInUnitRange(t *testing.T) {
	for _, classes := range []int{3, 4, 10} {
		uniform := make([]float32, classes)
		dominant := make([]float32, classes)
		dominant[classes-1] = 40
		for name, logits := range map[string][]float32{"uniform": uniform, "dominant": dominant} {
			ctx := fmt.Sprintf("%s/%d", name, classes)
			got := LogitsConfidence(logits, make([]float32, classes))
			walk := &multiexit.State{Logits: tensor.FromSlice(append([]float32(nil), logits...), 1, classes)}
			if want := walk.Confidence(); got != want {
				t.Errorf("%s: plan confidence %v, layer walk %v", ctx, got, want)
			}
			if got < 0 || got > 1 {
				t.Errorf("%s: confidence %v outside [0, 1]", ctx, got)
			}
			if name == "uniform" && got > 1e-6 {
				t.Errorf("%s: confidence %v, want about 0", ctx, got)
			}
			if name == "dominant" && got < 0.99 {
				t.Errorf("%s: confidence %v, want about 1", ctx, got)
			}
		}
	}
}

// TestPlanFollowsWeightUpdates verifies that plans hold live views into
// the network's parameters, not snapshots.
func TestPlanFollowsWeightUpdates(t *testing.T) {
	net := multiexit.LeNetEE(tensor.NewRNG(2))
	geom, _ := InferGeometry(net)
	p, err := Compile(net, geom)
	if err != nil {
		t.Fatal(err)
	}
	ex, st := p.NewExec(), p.NewState()
	img := testImages(1, 3)[0]

	ex.InferTo(st, img, 0)
	before := append([]float32(nil), st.Logits()...)

	for _, pr := range net.Params() {
		pr.Value.ScaleInPlace(0.5)
	}
	ex.InferTo(st, img, 0)
	want := net.InferTo(img, 0)
	same := true
	for i, v := range st.Logits() {
		if v != want.Logits.Data[i] {
			t.Fatalf("after weight update, plan logit[%d] diverges from layer walk", i)
		}
		if v != before[i] {
			same = false
		}
	}
	if same {
		t.Fatal("plan output unchanged after scaling every weight — stale snapshot?")
	}
}

// TestPlanAllocs is the allocation regression gate: the plan path must
// run with at most 2 allocs per inference (target 0).
func TestPlanAllocs(t *testing.T) {
	net := multiexit.LeNetEE(tensor.NewRNG(4))
	geom, _ := InferGeometry(net)
	p, err := Compile(net, geom)
	if err != nil {
		t.Fatal(err)
	}
	ex, st := p.NewExec(), p.NewState()
	img := testImages(1, 5)[0]

	for name, fn := range map[string]func(){
		"InferTo":    func() { ex.InferTo(st, img, 2) },
		"Resume":     func() { ex.InferTo(st, img, 0); ex.Resume(st, 2) },
		"Confidence": func() { _ = st.Confidence(); _ = st.Predicted() },
	} {
		if allocs := testing.AllocsPerRun(20, fn); allocs > 2 {
			t.Errorf("%s: %v allocs/op, want <= 2", name, allocs)
		}
	}
}

// TestInt8Plan checks the int8 backend end to end: it runs, resumes, and
// its argmax agrees with the float backend on a large majority of
// uniformly random inputs (it is an approximation, not a bit-identical
// backend).
func TestInt8Plan(t *testing.T) {
	net := multiexit.LeNetEE(tensor.NewRNG(6))
	geom, _ := InferGeometry(net)
	fp, err := Compile(net, geom)
	if err != nil {
		t.Fatal(err)
	}
	ip, err := CompileInt8(net, geom, Int8Config{Calibration: testImages(4, 21)})
	if err != nil {
		t.Fatal(err)
	}
	if !ip.Int8() || fp.Int8() {
		t.Fatal("backend flags wrong")
	}
	fex, fst := fp.NewExec(), fp.NewState()
	iex, ist := ip.NewExec(), ip.NewState()

	imgs := testImages(32, 9)
	for exit := 0; exit < net.NumExits(); exit++ {
		agree := 0
		for _, img := range imgs {
			fex.InferTo(fst, img, exit)
			iex.InferTo(ist, img, exit)
			if fst.Predicted() == ist.Predicted() {
				agree++
			}
			if c := ist.Confidence(); c < 0 || c > 1 {
				t.Fatalf("int8 confidence %v out of range", c)
			}
		}
		if agree < len(imgs)*3/4 {
			t.Errorf("exit %d: int8 argmax agrees on only %d/%d images", exit, agree, len(imgs))
		}
	}

	// Resume must match direct int8 inference exactly (same integer
	// pipeline, same codes).
	img := imgs[0]
	iex.InferTo(ist, img, 2)
	direct := append([]float32(nil), ist.Logits()...)
	iex.InferTo(ist, img, 0)
	iex.Resume(ist, 2)
	for i, v := range ist.Logits() {
		if v != direct[i] {
			t.Fatalf("int8 resume logit[%d] = %v, direct = %v", i, v, direct[i])
		}
	}

	// And the int8 path must be allocation-free too.
	if allocs := testing.AllocsPerRun(20, func() { iex.InferTo(ist, img, 2) }); allocs > 2 {
		t.Errorf("int8 InferTo: %v allocs/op, want <= 2", allocs)
	}
}

// TestCompileRejectsBadGeometry checks compile-time validation.
func TestCompileRejectsBadGeometry(t *testing.T) {
	net := multiexit.LeNetEE(nil)
	if _, err := Compile(net, Geometry{C: 3, H: 8, W: 8}); err == nil {
		t.Fatal("expected error compiling 32x32 architecture at 8x8")
	}
	if _, err := Compile(net, Geometry{}); err == nil {
		t.Fatal("expected error for zero geometry")
	}
}
