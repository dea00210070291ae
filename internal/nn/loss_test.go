package nn

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := tensor.NewRNG(1)
	logits := tensor.New(8, 10)
	tensor.FillNormal(logits, rng, 3)
	p := Softmax(logits)
	for i := 0; i < 8; i++ {
		var sum float64
		for j := 0; j < 10; j++ {
			v := p.At(i, j)
			if v < 0 || v > 1 {
				t.Fatalf("probability out of range: %v", v)
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	a := tensor.FromSlice([]float32{1, 2, 3}, 1, 3)
	b := tensor.FromSlice([]float32{1001, 1002, 1003}, 1, 3)
	pa := Softmax(a)
	pb := Softmax(b)
	if pa.L2Distance(pb) > 1e-5 {
		t.Fatal("softmax must be shift-invariant (and not overflow)")
	}
}

func TestEntropyBounds(t *testing.T) {
	uniform := []float32{0.25, 0.25, 0.25, 0.25}
	onehot := []float32{1, 0, 0, 0}
	if h := Entropy(onehot); h != 0 {
		t.Fatalf("one-hot entropy = %v, want 0", h)
	}
	if h := Entropy(uniform); math.Abs(h-math.Log(4)) > 1e-9 {
		t.Fatalf("uniform entropy = %v, want ln4", h)
	}
	if h := NormalizedEntropy(uniform); math.Abs(h-1) > 1e-9 {
		t.Fatalf("normalized uniform entropy = %v, want 1", h)
	}
}

func TestNormalizedEntropyRangeProperty(t *testing.T) {
	f := func(raw []float32) bool {
		if len(raw) < 2 {
			return true
		}
		// Build a valid distribution from absolute values.
		var sum float64
		probs := make([]float32, len(raw))
		for i, v := range raw {
			a := math.Abs(float64(v))
			if math.IsNaN(a) || math.IsInf(a, 0) {
				a = 1
			}
			probs[i] = float32(a) + 1e-6
			sum += float64(probs[i])
		}
		for i := range probs {
			probs[i] = float32(float64(probs[i]) / sum)
		}
		h := NormalizedEntropy(probs)
		return h >= -1e-9 && h <= 1+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCrossEntropyPerfectPrediction(t *testing.T) {
	logits := tensor.FromSlice([]float32{100, 0, 0}, 1, 3)
	loss, _ := CrossEntropyLoss(logits, []int{0})
	if loss > 1e-6 {
		t.Fatalf("confident correct prediction should have ~0 loss, got %v", loss)
	}
}

func TestCrossEntropyUniformBaseline(t *testing.T) {
	logits := tensor.New(1, 10) // all zeros → uniform
	loss, _ := CrossEntropyLoss(logits, []int{3})
	if math.Abs(loss-math.Log(10)) > 1e-5 {
		t.Fatalf("uniform CE = %v, want ln10", loss)
	}
}

func TestCrossEntropyGradSumsToZeroPerRow(t *testing.T) {
	rng := tensor.NewRNG(2)
	logits := tensor.New(4, 6)
	tensor.FillNormal(logits, rng, 2)
	_, grad := CrossEntropyLoss(logits, []int{0, 1, 2, 3})
	for i := 0; i < 4; i++ {
		var sum float64
		for j := 0; j < 6; j++ {
			sum += float64(grad.At(i, j))
		}
		if math.Abs(sum) > 1e-5 {
			t.Fatalf("row %d grad sums to %v (softmax-CE grads sum to 0)", i, sum)
		}
	}
}

func TestCrossEntropyBadLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CrossEntropyLoss(tensor.New(1, 3), []int{3})
}
