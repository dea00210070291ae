package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

func TestAvgPoolForwardValues(t *testing.T) {
	l := NewAvgPool2D("a", 2, 2)
	x := tensor.FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	out := l.Forward(x, false)
	want := []float32{3.5, 5.5, 11.5, 13.5}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("avg pool = %v, want %v", out.Data, want)
		}
	}
}

func TestAvgPoolGradients(t *testing.T) {
	rng := tensor.NewRNG(1)
	l := NewAvgPool2D("a", 2, 2)
	x := tensor.New(1, 2, 4, 4)
	tensor.FillNormal(x, rng, 1)
	checkLayerGradients(t, l, x, 5e-2)
}

func TestAvgPoolPreservesMean(t *testing.T) {
	rng := tensor.NewRNG(2)
	l := NewAvgPool2D("a", 2, 2)
	x := tensor.New(1, 1, 6, 6)
	tensor.FillUniform(x, rng, 0, 1)
	out := l.Forward(x, false)
	inMean := x.Sum() / float64(x.Len())
	outMean := out.Sum() / float64(out.Len())
	if math.Abs(inMean-outMean) > 1e-5 {
		t.Fatalf("non-overlapping average pooling must preserve the mean: %v vs %v", inMean, outMean)
	}
}
