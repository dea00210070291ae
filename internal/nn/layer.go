// Package nn implements the small neural-network substrate the paper's
// multi-exit models are built from: convolution, dense, ReLU, max-pooling,
// and flatten layers with full forward/backward passes, SGD/Adam
// optimizers, and a softmax cross-entropy loss.
//
// The package is sized for MCU-class networks (LeNet scale): kernels are
// im2col+matmul over float32 and carry per-layer FLOPs and weight-size
// accounting, which the compression and energy models consume. Layers
// optionally apply linear "fake" quantization to weights (offline, via the
// compress package) and activations (ActBits on Conv2D/Dense) so that
// compressed-network accuracy can be evaluated exactly as the paper does.
package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Param is a trainable parameter with its gradient accumulator.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// newParam allocates a parameter and matching zero gradient.
func newParam(name string, shape ...int) *Param {
	return &Param{
		Name:  name,
		Value: tensor.New(shape...),
		Grad:  tensor.New(shape...),
	}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is one differentiable stage of a network.
//
// Forward consumes a batch and returns the batch output. When train is
// true the layer caches whatever it needs for Backward; inference-only
// calls may skip caching. Backward consumes dL/dOut and returns dL/dIn,
// accumulating parameter gradients into Params().
type Layer interface {
	Name() string
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(grad *tensor.Tensor) *tensor.Tensor
	Params() []*Param
	// FLOPs returns the multiply-accumulate count for a single sample.
	// The repository counts one MAC as one FLOP throughout; the paper's
	// energy constant (1.5 mJ/MFLOP) is applied to this count.
	FLOPs() int64
	// WeightBits returns the total storage cost of the layer's weights in
	// bits at its current quantization setting (32-bit when unquantized).
	WeightBits() int64
}

// statelessParams is embedded by layers without trainable parameters.
type statelessParams struct{}

func (statelessParams) Params() []*Param  { return nil }
func (statelessParams) FLOPs() int64      { return 0 }
func (statelessParams) WeightBits() int64 { return 0 }

// ReLU applies max(0, x) element-wise.
type ReLU struct {
	statelessParams
	name string
	mask []bool
}

// NewReLU returns a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name implements Layer.
func (l *ReLU) Name() string { return l.name }

// Forward implements Layer.
func (l *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := x.Clone()
	if train {
		if cap(l.mask) < out.Len() {
			l.mask = make([]bool, out.Len())
		}
		l.mask = l.mask[:out.Len()]
	}
	for i, v := range out.Data {
		active := v > 0
		if !active {
			out.Data[i] = 0
		}
		if train {
			l.mask[i] = active
		}
	}
	return out
}

// Backward implements Layer.
func (l *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if len(l.mask) != grad.Len() {
		panic(fmt.Sprintf("nn: ReLU %q backward without matching forward (mask %d, grad %d)", l.name, len(l.mask), grad.Len()))
	}
	out := grad.Clone()
	for i := range out.Data {
		if !l.mask[i] {
			out.Data[i] = 0
		}
	}
	return out
}

// Flatten reshapes [N, C, H, W] (or any rank ≥ 2) into [N, rest].
type Flatten struct {
	statelessParams
	name    string
	inShape []int
}

// NewFlatten returns a Flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// Name implements Layer.
func (l *Flatten) Name() string { return l.name }

// Forward implements Layer.
func (l *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		l.inShape = append(l.inShape[:0], x.Shape()...)
	}
	n := x.Dim(0)
	return x.Reshape(n, -1)
}

// Backward implements Layer.
func (l *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if len(l.inShape) == 0 {
		panic(fmt.Sprintf("nn: Flatten %q backward without forward", l.name))
	}
	return grad.Reshape(l.inShape...)
}

// MaxPool2D applies non-overlapping (or strided) 2-D max pooling over NCHW.
type MaxPool2D struct {
	statelessParams
	name           string
	Kernel, Stride int

	inShape []int
	argmax  []int
}

// NewMaxPool2D returns a max-pool layer with the given square kernel and
// stride.
func NewMaxPool2D(name string, kernel, stride int) *MaxPool2D {
	if kernel <= 0 || stride <= 0 {
		panic(fmt.Sprintf("nn: MaxPool2D %q needs positive kernel/stride, got %d/%d", name, kernel, stride))
	}
	return &MaxPool2D{name: name, Kernel: kernel, Stride: stride}
}

// Name implements Layer.
func (l *MaxPool2D) Name() string { return l.name }

// OutDims returns the spatial output dims for input h×w.
func (l *MaxPool2D) OutDims(h, w int) (int, int) {
	return tensor.WindowOut(h, l.Kernel, l.Stride, 0), tensor.WindowOut(w, l.Kernel, l.Stride, 0)
}

// Forward implements Layer.
func (l *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: MaxPool2D %q expects NCHW input, got %v", l.name, x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := l.OutDims(h, w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: MaxPool2D %q yields empty output for input %v", l.name, x.Shape()))
	}
	out := tensor.New(n, c, oh, ow)
	if train {
		l.inShape = append(l.inShape[:0], x.Shape()...)
		if cap(l.argmax) < out.Len() {
			l.argmax = make([]int, out.Len())
		}
		l.argmax = l.argmax[:out.Len()]
	}
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			planeBase := (ni*c + ci) * h * w
			outBase := (ni*c + ci) * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					bestIdx := planeBase + (oy*l.Stride)*w + ox*l.Stride
					best := x.Data[bestIdx]
					for ky := 0; ky < l.Kernel; ky++ {
						rowBase := planeBase + (oy*l.Stride+ky)*w
						for kx := 0; kx < l.Kernel; kx++ {
							idx := rowBase + ox*l.Stride + kx
							if x.Data[idx] > best {
								best = x.Data[idx]
								bestIdx = idx
							}
						}
					}
					o := outBase + oy*ow + ox
					out.Data[o] = best
					if train {
						l.argmax[o] = bestIdx
					}
				}
			}
		}
	}
	return out
}

// Backward implements Layer.
func (l *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if len(l.inShape) == 0 {
		panic(fmt.Sprintf("nn: MaxPool2D %q backward without forward", l.name))
	}
	dx := tensor.New(l.inShape...)
	for o, src := range l.argmax {
		dx.Data[src] += grad.Data[o]
	}
	return dx
}
