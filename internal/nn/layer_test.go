package nn

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/tensor"
)

func TestReLUForwardBackward(t *testing.T) {
	l := NewReLU("r")
	x := tensor.FromSlice([]float32{-1, 0, 2, -3}, 1, 4)
	out := l.Forward(x, true)
	want := []float32{0, 0, 2, 0}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("ReLU fwd = %v", out.Data)
		}
	}
	grad := tensor.FromSlice([]float32{1, 1, 1, 1}, 1, 4)
	dx := l.Backward(grad)
	wantG := []float32{0, 0, 1, 0}
	for i, w := range wantG {
		if dx.Data[i] != w {
			t.Fatalf("ReLU bwd = %v", dx.Data)
		}
	}
}

func TestReLUDoesNotMutateInput(t *testing.T) {
	l := NewReLU("r")
	x := tensor.FromSlice([]float32{-1, 2}, 1, 2)
	l.Forward(x, false)
	if x.Data[0] != -1 {
		t.Fatal("ReLU must not mutate its input")
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	l := NewFlatten("f")
	x := tensor.New(2, 3, 4, 5)
	out := l.Forward(x, true)
	if out.Dim(0) != 2 || out.Dim(1) != 60 {
		t.Fatalf("Flatten shape %v", out.Shape())
	}
	back := l.Backward(tensor.New(2, 60))
	if back.Rank() != 4 || back.Dim(3) != 5 {
		t.Fatalf("Flatten backward shape %v", back.Shape())
	}
}

func TestMaxPoolForwardValues(t *testing.T) {
	l := NewMaxPool2D("p", 2, 2)
	x := tensor.FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	out := l.Forward(x, false)
	want := []float32{6, 8, 14, 16}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("pool fwd = %v, want %v", out.Data, want)
		}
	}
}

func TestMaxPoolBackwardRoutesToArgmax(t *testing.T) {
	l := NewMaxPool2D("p", 2, 2)
	x := tensor.FromSlice([]float32{
		1, 2,
		3, 4,
	}, 1, 1, 2, 2)
	l.Forward(x, true)
	dx := l.Backward(tensor.FromSlice([]float32{10}, 1, 1, 1, 1))
	if dx.Data[3] != 10 || dx.Data[0] != 0 {
		t.Fatalf("pool bwd = %v", dx.Data)
	}
}

func TestConv2DKnownKernel(t *testing.T) {
	// A 1x1 identity kernel must reproduce the input plus bias.
	l := NewConv2D("c", 1, 1, 1, 1, 1, 0)
	l.W.Value.Data[0] = 1
	l.B.Value.Data[0] = 0.5
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	out := l.Forward(x, false)
	want := []float32{1.5, 2.5, 3.5, 4.5}
	for i, w := range want {
		if math.Abs(float64(out.Data[i]-w)) > 1e-6 {
			t.Fatalf("conv out = %v, want %v", out.Data, want)
		}
	}
}

func TestConv2DSumKernel(t *testing.T) {
	// A 3x3 all-ones kernel with padding computes local sums.
	l := NewConv2D("c", 1, 1, 3, 3, 1, 1)
	l.W.Value.Fill(1)
	x := tensor.New(1, 1, 3, 3)
	x.Fill(1)
	out := l.Forward(x, false)
	// Center of 3x3 all-ones image: 9 neighbors in bounds.
	if out.At(0, 0, 1, 1) != 9 {
		t.Fatalf("center sum = %v, want 9", out.At(0, 0, 1, 1))
	}
	// Corner: 4 in bounds.
	if out.At(0, 0, 0, 0) != 4 {
		t.Fatalf("corner sum = %v, want 4", out.At(0, 0, 0, 0))
	}
}

func TestConv2DChannelCountMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l := NewConv2D("c", 3, 1, 3, 3, 1, 1)
	l.Forward(tensor.New(1, 2, 8, 8), false)
}

func TestDenseForwardValues(t *testing.T) {
	l := NewDense("d", 2, 2)
	copy(l.W.Value.Data, []float32{1, 2, 3, 4}) // W = [[1,2],[3,4]]
	copy(l.B.Value.Data, []float32{10, 20})
	x := tensor.FromSlice([]float32{1, 1}, 1, 2)
	out := l.Forward(x, false)
	// out = x·Wᵀ + b = [1+2+10, 3+4+20]
	if out.Data[0] != 13 || out.Data[1] != 27 {
		t.Fatalf("dense out = %v", out.Data)
	}
}

func TestFLOPsAccounting(t *testing.T) {
	c := NewConv2D("c", 3, 6, 5, 5, 1, 0)
	c.NomH, c.NomW = 32, 32
	if got := c.FLOPs(); got != 6*3*25*28*28 {
		t.Fatalf("conv FLOPs = %d", got)
	}
	d := NewDense("d", 100, 10)
	if d.FLOPs() != 1000 {
		t.Fatalf("dense FLOPs = %d", d.FLOPs())
	}
}

func TestPrunedAccounting(t *testing.T) {
	c := NewConv2D("c", 6, 4, 3, 3, 1, 1)
	c.NomH, c.NomW = 8, 8
	full := c.FLOPs()
	c.KeptInC = 3
	if c.FLOPs() != full/2 {
		t.Fatalf("pruned FLOPs = %d, want %d", c.FLOPs(), full/2)
	}
	if c.WeightCount() != int64(4*3*9+4) {
		t.Fatalf("pruned weights = %d", c.WeightCount())
	}
	d := NewDense("d", 10, 5)
	d.KeptIn = 4
	if d.FLOPs() != 20 {
		t.Fatalf("pruned dense FLOPs = %d", d.FLOPs())
	}
}

func TestWeightBitsAccounting(t *testing.T) {
	d := NewDense("d", 10, 10)
	fullBits := d.WeightBits()
	if fullBits != int64(110*32) {
		t.Fatalf("full bits = %d", fullBits)
	}
	d.WeightBitsPerValue = 4
	if d.WeightBits() != int64(110*4) {
		t.Fatalf("4-bit = %d", d.WeightBits())
	}
}

func TestFakeQuantizeActivations(t *testing.T) {
	x := tensor.FromSlice([]float32{0, 0.5, 1.0, 0.25}, 4)
	FakeQuantizeActivations(x, 2) // 3 levels over [0, 1]: {0, 1/3, 2/3, 1}
	levels := map[float32]bool{}
	for _, v := range x.Data {
		levels[v] = true
	}
	if len(levels) > 4 {
		t.Fatalf("2-bit quantization produced %d levels", len(levels))
	}
	if x.Data[2] != 1.0 {
		t.Fatalf("max value must map to itself, got %v", x.Data[2])
	}
}

func TestFakeQuantizeHighBitsNearLossless(t *testing.T) {
	rng := tensor.NewRNG(8)
	x := tensor.New(100)
	tensor.FillUniform(x, rng, 0, 1)
	orig := x.Clone()
	FakeQuantizeActivations(x, 8)
	if x.L2Distance(orig) > 0.05 {
		t.Fatalf("8-bit activation quantization too lossy: %g", x.L2Distance(orig))
	}
}

func TestActBitsAppliedOnlyAtInference(t *testing.T) {
	rng := tensor.NewRNG(9)
	l := NewDense("d", 4, 4)
	tensor.FillNormal(l.W.Value, rng, 1)
	l.ActBits = 1
	x := tensor.New(1, 4)
	tensor.FillUniform(x, rng, 0, 1)
	trainOut := l.Forward(x, true)
	inferOut := l.Forward(x, false)
	if trainOut.L2Distance(inferOut) == 0 {
		t.Fatal("1-bit ActBits should alter inference output vs training output")
	}
}

// TestConv2DBadGeometryPanicNamesLayer: an invalid runtime geometry
// (window larger than the padded input) must panic with the layer's
// name, like every other layer panic — not the bare geometry error, and
// not an index out of range from a window counted where none fits.
func TestConv2DBadGeometryPanicNamesLayer(t *testing.T) {
	for _, tc := range []struct {
		layer Layer
		want  string
		in    *tensor.Tensor
	}{
		// A 3x3 input cannot fit a 5x5 kernel.
		{NewConv2D("tiny-conv", 1, 1, 5, 5, 1, 0), `Conv2D "tiny-conv"`, tensor.New(1, 1, 3, 3)},
		// A 2x2 input cannot fit a 3x3 window; at stride 2 the
		// truncating formula counted one.
		{NewMaxPool2D("tiny-max", 3, 2), `MaxPool2D "tiny-max"`, tensor.New(1, 1, 2, 2)},
		{NewAvgPool2D("tiny-avg", 3, 2), `AvgPool2D "tiny-avg"`, tensor.New(1, 1, 2, 2)},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s: expected panic on invalid geometry", tc.want)
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q does not name the layer %s", msg, tc.want)
				}
			}()
			tc.layer.Forward(tc.in, false)
		}()
	}
}
