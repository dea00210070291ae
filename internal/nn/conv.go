package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW input with weights stored as
// [OutC, InC, KH, KW]. Forward lowers each sample with im2col and performs
// a single matmul against the flattened filter bank, which is also how the
// compiled plans in internal/plan, float and integer, are organized.
//
// Channel pruning (the paper's Eq. 2) shrinks InC; the compress package
// rebuilds pruned Conv2D layers via NewConv2D with the reduced channel
// count and copies the surviving filters. ActBits > 0 applies linear
// activation quantization (the paper's Eq. 3 adapted to the non-negative
// post-ReLU range) during inference.
type Conv2D struct {
	name string

	InC, OutC int
	KH, KW    int
	StrideH   int
	StrideW   int
	PadH      int
	PadW      int

	// W has shape [OutC, InC, KH, KW]; B has shape [OutC].
	W *Param
	B *Param

	// WeightBitsPerValue is the current weight bitwidth for storage
	// accounting (32 when unquantized). Set by the compress package.
	WeightBitsPerValue int
	// ActBits, when in [1, 31], fake-quantizes the layer output to that
	// many bits during inference (train=false) forward passes.
	ActBits int
	// KeptInC is the number of surviving input channels after channel
	// pruning (0 means unpruned ⇒ InC). Pruned channels are zero-masked
	// in W rather than physically removed, so the graph stays intact;
	// FLOPs and weight storage are accounted at the kept count, matching
	// a real MCU deployment that skips pruned channels.
	KeptInC int

	// spatial dims of the most recent input, for FLOPs accounting and
	// backward.
	lastH, lastW int
	lastInput    *tensor.Tensor
	lastCols     []*tensor.Tensor
	// nominal input spatial dims, set by the architecture builder so
	// FLOPs() is meaningful before the first Forward call.
	NomH, NomW int
}

// NewConv2D builds a convolution layer. Weights are zero until initialized
// (see InitHe) or loaded.
func NewConv2D(name string, inC, outC, kh, kw, stride, pad int) *Conv2D {
	if inC <= 0 || outC <= 0 || kh <= 0 || kw <= 0 || stride <= 0 || pad < 0 {
		panic(fmt.Sprintf("nn: Conv2D %q invalid geometry in=%d out=%d k=%dx%d stride=%d pad=%d",
			name, inC, outC, kh, kw, stride, pad))
	}
	return &Conv2D{
		name:               name,
		InC:                inC,
		OutC:               outC,
		KH:                 kh,
		KW:                 kw,
		StrideH:            stride,
		StrideW:            stride,
		PadH:               pad,
		PadW:               pad,
		W:                  newParam(name+".W", outC, inC, kh, kw),
		B:                  newParam(name+".B", outC),
		WeightBitsPerValue: 32,
	}
}

// Name implements Layer.
func (l *Conv2D) Name() string { return l.name }

// Params implements Layer.
func (l *Conv2D) Params() []*Param { return []*Param{l.W, l.B} }

// Geom returns the convolution geometry for an h×w input.
func (l *Conv2D) Geom(h, w int) tensor.ConvGeom {
	return tensor.ConvGeom{
		InC: l.InC, InH: h, InW: w,
		KH: l.KH, KW: l.KW,
		StrideH: l.StrideH, StrideW: l.StrideW,
		PadH: l.PadH, PadW: l.PadW,
	}
}

// Forward implements Layer.
func (l *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: Conv2D %q expects NCHW input, got %v", l.name, x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if c != l.InC {
		panic(fmt.Sprintf("nn: Conv2D %q expects %d input channels, got %d", l.name, l.InC, c))
	}
	g := l.Geom(h, w)
	if err := g.Validate(); err != nil {
		// Wrap with the layer name like every sibling panic in this file —
		// a bare geometry error is useless in a deep-stack report.
		panic(fmt.Sprintf("nn: Conv2D %q: %v", l.name, err))
	}
	oh, ow := g.OutH(), g.OutW()
	l.lastH, l.lastW = h, w

	wMat := l.W.Value.Reshape(l.OutC, l.InC*l.KH*l.KW)
	out := tensor.New(n, l.OutC, oh, ow)
	sampleVol := c * h * w
	outVol := l.OutC * oh * ow
	colRows, colCols := l.InC*l.KH*l.KW, oh*ow

	if train {
		// Training path: im2col matrices must outlive the call for
		// Backward, so they are freshly allocated and retained.
		l.lastInput = x
		l.lastCols = l.lastCols[:0]
		res := tensor.New(l.OutC, oh*ow)
		for ni := 0; ni < n; ni++ {
			img := tensor.FromSlice(x.Data[ni*sampleVol:(ni+1)*sampleVol], c, h, w)
			col := tensor.Im2Col(img, g)
			l.lastCols = append(l.lastCols, col)
			tensor.MatMulInto(res, wMat, col)
			l.addBias(out.Data[ni*outVol:(ni+1)*outVol], res.Data, oh*ow)
		}
		return out
	}

	// Inference path: samples are independent, so the batch is banded
	// across workers; each band reuses one pooled im2col matrix and one
	// pooled GEMM result, eliminating the two per-sample allocations that
	// dominated the naive path. Inside a band the GEMM runs serial — the
	// batch split already saturates the cores, so nested fan-out would
	// only add scheduler overhead. A single-sample call (the runtime's
	// event-driven inference) has no batch to split, so it uses the
	// row-parallel MatMulInto instead.
	gemm := tensor.MatMulSerialInto
	if n == 1 {
		gemm = tensor.MatMulInto
	}
	tensor.ParallelFor(n, func(lo, hi int) {
		colBuf := tensor.GetBuf(colRows * colCols)
		resBuf := tensor.GetBuf(outVol)
		defer tensor.PutBuf(colBuf)
		defer tensor.PutBuf(resBuf)
		col := tensor.FromSlice(colBuf, colRows, colCols)
		res := tensor.FromSlice(resBuf, l.OutC, oh*ow)
		for ni := lo; ni < hi; ni++ {
			img := tensor.FromSlice(x.Data[ni*sampleVol:(ni+1)*sampleVol], c, h, w)
			tensor.Im2ColInto(col, img, g)
			gemm(res, wMat, col)
			l.addBias(out.Data[ni*outVol:(ni+1)*outVol], res.Data, oh*ow)
		}
	})
	if l.ActBits > 0 {
		FakeQuantizeActivations(out, l.ActBits)
	}
	return out
}

// addBias copies the GEMM result into the output sample and adds the
// per-channel bias.
func (l *Conv2D) addBias(dst, res []float32, spatial int) {
	copy(dst, res)
	for oc := 0; oc < l.OutC; oc++ {
		b := l.B.Value.Data[oc]
		row := dst[oc*spatial : (oc+1)*spatial]
		for i := range row {
			row[i] += b
		}
	}
}

// Backward implements Layer.
func (l *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if l.lastInput == nil {
		panic(fmt.Sprintf("nn: Conv2D %q backward without forward", l.name))
	}
	x := l.lastInput
	n := x.Dim(0)
	g := l.Geom(l.lastH, l.lastW)
	oh, ow := g.OutH(), g.OutW()
	outVol := l.OutC * oh * ow

	wMat := l.W.Value.Reshape(l.OutC, l.InC*l.KH*l.KW)
	dwMat := l.W.Grad.Reshape(l.OutC, l.InC*l.KH*l.KW)
	dx := tensor.New(x.Shape()...)
	sampleVol := x.Dim(1) * l.lastH * l.lastW

	for ni := 0; ni < n; ni++ {
		dOut := tensor.FromSlice(grad.Data[ni*outVol:(ni+1)*outVol], l.OutC, oh*ow)
		col := l.lastCols[ni]
		// dW += dOut × colᵀ
		dwMat.AddInPlace(tensor.MatMulTransB(dOut, col))
		// dB += row sums of dOut
		for oc := 0; oc < l.OutC; oc++ {
			var s float32
			row := dOut.Data[oc*oh*ow : (oc+1)*oh*ow]
			for _, v := range row {
				s += v
			}
			l.B.Grad.Data[oc] += s
		}
		// dcol = Wᵀ × dOut, then scatter back to the image gradient.
		dcol := tensor.MatMulTransA(wMat, dOut)
		dimg := tensor.Col2Im(dcol, g)
		copy(dx.Data[ni*sampleVol:(ni+1)*sampleVol], dimg.Data)
	}
	return dx
}

// EffectiveInC returns the input-channel count used for cost accounting:
// KeptInC when pruned, InC otherwise.
func (l *Conv2D) EffectiveInC() int {
	if l.KeptInC > 0 {
		return l.KeptInC
	}
	return l.InC
}

// FLOPs implements Layer: MACs for one sample at the nominal input size,
// reflecting channel pruning.
func (l *Conv2D) FLOPs() int64 {
	h, w := l.NomH, l.NomW
	if h == 0 || w == 0 {
		h, w = l.lastH, l.lastW
	}
	if h == 0 || w == 0 {
		return 0
	}
	g := l.Geom(h, w)
	return int64(l.OutC) * int64(l.EffectiveInC()) * int64(l.KH) * int64(l.KW) * int64(g.OutH()) * int64(g.OutW())
}

// WeightCount returns the number of stored weight and bias values,
// reflecting channel pruning.
func (l *Conv2D) WeightCount() int64 {
	return int64(l.OutC)*int64(l.EffectiveInC())*int64(l.KH)*int64(l.KW) + int64(l.OutC)
}

// WeightBits implements Layer.
func (l *Conv2D) WeightBits() int64 {
	return l.WeightCount() * int64(l.WeightBitsPerValue)
}

// Dense is a fully-connected layer: out = x·Wᵀ + b with W shaped
// [Out, In]. Like Conv2D it carries bit-width accounting and optional
// activation fake-quantization.
type Dense struct {
	name    string
	In, Out int

	W *Param
	B *Param

	WeightBitsPerValue int
	ActBits            int
	// KeptIn is the number of surviving input activations after pruning
	// (0 means unpruned ⇒ In); see Conv2D.KeptInC.
	KeptIn int
	// Final marks the layer as a classifier head; heads skip activation
	// quantization because their logits feed softmax directly.
	Final bool

	lastInput *tensor.Tensor
}

// NewDense builds a fully-connected layer.
func NewDense(name string, in, out int) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: Dense %q invalid dims in=%d out=%d", name, in, out))
	}
	return &Dense{
		name:               name,
		In:                 in,
		Out:                out,
		W:                  newParam(name+".W", out, in),
		B:                  newParam(name+".B", out),
		WeightBitsPerValue: 32,
	}
}

// Name implements Layer.
func (l *Dense) Name() string { return l.name }

// Params implements Layer.
func (l *Dense) Params() []*Param { return []*Param{l.W, l.B} }

// Forward implements Layer.
func (l *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 2 {
		panic(fmt.Sprintf("nn: Dense %q expects [N, features] input, got %v", l.name, x.Shape()))
	}
	if x.Dim(1) != l.In {
		panic(fmt.Sprintf("nn: Dense %q expects %d features, got %d", l.name, l.In, x.Dim(1)))
	}
	if train {
		l.lastInput = x
	}
	out := tensor.MatMulTransB(x, l.W.Value)
	n := x.Dim(0)
	for ni := 0; ni < n; ni++ {
		row := out.Data[ni*l.Out : (ni+1)*l.Out]
		for j := range row {
			row[j] += l.B.Value.Data[j]
		}
	}
	if !train && l.ActBits > 0 && !l.Final {
		FakeQuantizeActivations(out, l.ActBits)
	}
	return out
}

// Backward implements Layer.
func (l *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if l.lastInput == nil {
		panic(fmt.Sprintf("nn: Dense %q backward without forward", l.name))
	}
	// dW += gradᵀ × x ; dB += column sums ; dx = grad × W
	l.W.Grad.AddInPlace(tensor.MatMulTransA(grad, l.lastInput))
	n := grad.Dim(0)
	for ni := 0; ni < n; ni++ {
		row := grad.Data[ni*l.Out : (ni+1)*l.Out]
		for j, v := range row {
			l.B.Grad.Data[j] += v
		}
	}
	return tensor.MatMul(grad, l.W.Value)
}

// EffectiveIn returns the input count used for cost accounting.
func (l *Dense) EffectiveIn() int {
	if l.KeptIn > 0 {
		return l.KeptIn
	}
	return l.In
}

// FLOPs implements Layer.
func (l *Dense) FLOPs() int64 { return int64(l.EffectiveIn()) * int64(l.Out) }

// WeightCount returns the number of stored weight and bias values,
// reflecting pruning.
func (l *Dense) WeightCount() int64 { return int64(l.EffectiveIn())*int64(l.Out) + int64(l.Out) }

// WeightBits implements Layer.
func (l *Dense) WeightBits() int64 { return l.WeightCount() * int64(l.WeightBitsPerValue) }

// FakeQuantizeActivations linearly quantizes the (assumed non-negative
// ReLU-range, clamping negatives) activations of t to the given number of
// bits using a dynamic per-tensor scale, mirroring the paper's activation
// quantization: values are truncated into [0, 2^bits − 1] quantization
// levels spanning the observed range.
func FakeQuantizeActivations(t *tensor.Tensor, bits int) {
	FakeQuantizeSlice(t.Data, bits)
}

// FakeQuantizeSlice is FakeQuantizeActivations over a raw value slice; the
// compiled inference plans (internal/plan) call it against arena storage.
// Both entry points share this one loop so plan output stays bit-identical
// to the layer walk.
func FakeQuantizeSlice(data []float32, bits int) {
	if bits <= 0 || bits >= 32 {
		return
	}
	var maxV float32
	for _, v := range data {
		if v < 0 {
			v = -v
		}
		if v > maxV {
			maxV = v
		}
	}
	if maxV == 0 {
		return
	}
	levels := float32(uint32(1)<<uint(bits)) - 1
	scale := maxV / levels
	for i, v := range data {
		if v < 0 {
			// Negative values only occur pre-ReLU on classifier heads,
			// which skip quantization; clamp defensively.
			v = 0
		}
		q := float32(int32(v/scale + 0.5))
		if q > levels {
			q = levels
		}
		data[i] = q * scale
	}
}
