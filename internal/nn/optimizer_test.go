package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// quadratic builds params and a gradient setter for L = Σ (x−target)².
func quadratic(target float32) (*Param, func()) {
	p := newParam("x", 4)
	for i := range p.Value.Data {
		p.Value.Data[i] = 5
	}
	setGrad := func() {
		for i := range p.Grad.Data {
			p.Grad.Data[i] = 2 * (p.Value.Data[i] - target)
		}
	}
	return p, setGrad
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	p, setGrad := quadratic(1)
	opt := NewSGD([]*Param{p}, 0.1, 0, 0)
	for i := 0; i < 200; i++ {
		opt.ZeroGrad()
		setGrad()
		opt.Step()
	}
	for _, v := range p.Value.Data {
		if math.Abs(float64(v-1)) > 1e-3 {
			t.Fatalf("SGD did not converge: %v", p.Value.Data)
		}
	}
}

func TestSGDMomentumFasterThanPlain(t *testing.T) {
	run := func(momentum float64) float64 {
		p, setGrad := quadratic(1)
		opt := NewSGD([]*Param{p}, 0.02, momentum, 0)
		for i := 0; i < 30; i++ {
			opt.ZeroGrad()
			setGrad()
			opt.Step()
		}
		return math.Abs(float64(p.Value.Data[0] - 1))
	}
	if run(0.9) >= run(0) {
		t.Fatal("momentum should accelerate convergence on a quadratic")
	}
}

func TestSGDWeightDecayShrinks(t *testing.T) {
	p := newParam("x", 1)
	p.Value.Data[0] = 1
	opt := NewSGD([]*Param{p}, 0.1, 0, 0.5)
	opt.Step() // zero task gradient; only decay acts
	if p.Value.Data[0] >= 1 {
		t.Fatal("weight decay should shrink the parameter")
	}
}

func TestSGDInvalidLRPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSGD(nil, 0, 0, 0)
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	p, setGrad := quadratic(-2)
	opt := NewAdam([]*Param{p}, 0.1)
	for i := 0; i < 500; i++ {
		opt.ZeroGrad()
		setGrad()
		opt.Step()
	}
	for _, v := range p.Value.Data {
		if math.Abs(float64(v+2)) > 1e-2 {
			t.Fatalf("Adam did not converge: %v", p.Value.Data)
		}
	}
}

func TestZeroGradClears(t *testing.T) {
	p, setGrad := quadratic(0)
	opt := NewSGD([]*Param{p}, 0.1, 0, 0)
	setGrad()
	opt.ZeroGrad()
	for _, g := range p.Grad.Data {
		if g != 0 {
			t.Fatal("ZeroGrad must clear gradients")
		}
	}
}

func TestMLPTrainsXOR(t *testing.T) {
	// End-to-end optimizer+layers sanity: a small MLP can fit XOR.
	rng := tensor.NewRNG(42)
	net := MLP("xor", []int{2, 8, 2})
	InitHe(net, rng)
	opt := NewAdam(net.Params(), 0.02)
	x := tensor.FromSlice([]float32{0, 0, 0, 1, 1, 0, 1, 1}, 4, 2)
	labels := []int{0, 1, 1, 0}
	var loss float64
	for i := 0; i < 800; i++ {
		opt.ZeroGrad()
		out := net.Forward(x, true)
		var grad *tensor.Tensor
		loss, grad = CrossEntropyLoss(out, labels)
		net.Backward(grad)
		opt.Step()
	}
	if loss > 0.1 {
		t.Fatalf("XOR loss after training = %v", loss)
	}
	out := net.Forward(x, false)
	for i, want := range labels {
		row := tensor.FromSlice(out.Data[2*i:2*i+2], 2)
		if got := row.ArgMax(); got != want {
			t.Fatalf("XOR input %d classified %d, want %d", i, got, want)
		}
	}
}
