package plan

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Exec runs a compiled plan on its own preallocated arena. An Exec is
// cheap relative to an inference, single-goroutine, and reusable for any
// number of inferences; every buffer it will ever need is allocated here,
// so InferTo and Resume perform zero heap allocations.
type Exec struct {
	p *Plan

	// Double-buffered float activation slabs: each step reads one and
	// writes the other, so no step ever aliases its input.
	bufA, bufB []float32
	col        []float32

	// Integer arena for the int8 backend; logitsOut receives the
	// classifier head's dequantized logits.
	bufA8, bufB8 []uint8
	col8         []uint8
	logitsOut    []float32
}

// NewExec builds an executor for the plan.
func (p *Plan) NewExec() *Exec {
	e := &Exec{p: p}
	if p.int8 {
		e.bufA8 = make([]uint8, p.maxVol)
		e.bufB8 = make([]uint8, p.maxVol)
		e.col8 = make([]uint8, p.maxColVol)
		e.logitsOut = make([]float32, p.classes)
	} else {
		e.bufA = make([]float32, p.maxVol)
		e.bufB = make([]float32, p.maxVol)
		e.col = make([]float32, p.maxColVol)
	}
	return e
}

// Plan returns the compiled program this executor runs.
func (e *Exec) Plan() *Plan { return e.p }

// State is a suspended plan inference: the checkpointable trunk
// activation (what the paper's runtime writes to FRAM between power
// cycles) plus the logits of the deepest exit computed so far. A State
// is allocated once (NewState) and refilled by every InferTo, so the
// episode loop reuses one State across all events.
type State struct {
	// Exit is the deepest exit already computed.
	Exit int

	logits []float32
	probs  []float32 // softmax scratch for Confidence

	trunk      []float32
	trunk8     []uint8
	trunkShape shape
}

// NewState allocates a state sized for the plan's largest trunk
// checkpoint.
func (p *Plan) NewState() *State {
	s := &State{
		logits: make([]float32, p.classes),
		probs:  make([]float32, p.classes),
	}
	if p.int8 {
		s.trunk8 = make([]uint8, p.maxTrunkVol)
	} else {
		s.trunk = make([]float32, p.maxTrunkVol)
	}
	return s
}

// Logits returns the state's logits for the deepest computed exit. The
// slice is reused by the next InferTo/Resume into this state.
func (s *State) Logits() []float32 { return s.logits }

// Predicted returns the argmax class, matching
// multiexit.State.Predicted (first maximum wins).
func (s *State) Predicted() int { return Argmax(s.logits) }

// Confidence returns the normalized-entropy confidence of the state's
// logits in [0, 1]. It reproduces multiexit.State.Confidence
// (nn.Softmax + nn.NormalizedEntropy) bit for bit, against the state's
// own scratch instead of fresh tensors.
func (s *State) Confidence() float64 { return LogitsConfidence(s.logits, s.probs) }

// Argmax returns the index of the first maximum of a logits row,
// matching multiexit.State.Predicted.
//
//ehlint:hotpath
func Argmax(logits []float32) int {
	best := 0
	for i, v := range logits {
		if v > logits[best] {
			best = i
		}
	}
	return best
}

// LogitsConfidence computes the normalized-entropy confidence of one
// logits row using caller-owned softmax scratch (len(probs) must be at
// least len(logits)). State.Confidence and the batched serving path
// share this loop, so both reproduce multiexit.State.Confidence bit for
// bit without allocating.
//
//ehlint:hotpath
func LogitsConfidence(logits, probs []float32) float64 {
	probs = probs[:len(logits)]
	maxV := logits[0]
	for _, v := range logits[1:] {
		if v > maxV {
			maxV = v
		}
	}
	var sum float64
	for j, v := range logits {
		e := math.Exp(float64(v - maxV))
		probs[j] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for j := range probs {
		probs[j] *= inv
	}
	return 1 - nn.NormalizedEntropy(probs)
}

// InferTo runs inference on a single image (CHW or 1CHW, matching the
// plan's geometry) up to the given exit, filling dst with the suspended
// state. dst must come from the same plan's NewState.
//
//ehlint:hotpath
func (e *Exec) InferTo(dst *State, img *tensor.Tensor, exit int) {
	p := e.p
	if exit < 0 || exit >= len(p.segments) {
		panic(fmt.Sprintf("plan: exit %d out of range [0,%d)", exit, len(p.segments)))
	}
	if img.Len() != p.geom.Vol() {
		panic(fmt.Sprintf("plan: image volume %d does not match compiled geometry %+v", img.Len(), p.geom))
	}
	if p.int8 {
		e.inferToInt8(dst, img, exit)
		return
	}
	cur := img.Data
	owned := false
	for i := 0; i <= exit; i++ {
		cur, owned = e.runFloat(p.segments[i], cur, owned)
	}
	e.checkpointFloat(dst, cur, exit)
	out, _ := e.runFloat(p.branches[exit], cur, owned)
	copy(dst.logits, out[:p.classes])
	dst.Exit = exit
}

// Resume continues a suspended inference to a deeper exit, re-running
// only trunk segments (state.Exit, exit] and branch exit. It panics if
// exit does not exceed dst.Exit, like the layer walk.
//
//ehlint:hotpath
func (e *Exec) Resume(dst *State, exit int) {
	p := e.p
	if exit <= dst.Exit || exit >= len(p.segments) {
		panic(fmt.Sprintf("plan: cannot resume from exit %d to exit %d", dst.Exit, exit))
	}
	if p.int8 {
		e.resumeInt8(dst, exit)
		return
	}
	cur := dst.trunk[:dst.trunkShape.vol()]
	owned := false
	for i := dst.Exit + 1; i <= exit; i++ {
		cur, owned = e.runFloat(p.segments[i], cur, owned)
	}
	e.checkpointFloat(dst, cur, exit)
	out, _ := e.runFloat(p.branches[exit], cur, owned)
	copy(dst.logits, out[:p.classes])
	dst.Exit = exit
}

// checkpointFloat copies the trunk activation into the state.
//
//ehlint:hotpath
func (e *Exec) checkpointFloat(dst *State, cur []float32, exit int) {
	sh := e.p.trunkShapes[exit]
	copy(dst.trunk[:sh.vol()], cur[:sh.vol()])
	dst.trunkShape = sh
}

// other returns the slab that is not cur; when cur is external (the
// input image or a state checkpoint), bufA is free by construction.
//
//ehlint:hotpath
func (e *Exec) other(cur []float32) []float32 {
	if len(cur) > 0 && len(e.bufA) > 0 && &cur[0] == &e.bufA[0] {
		return e.bufB
	}
	return e.bufA
}

// runFloat executes one fused-step chain. cur is the input activation;
// owned reports whether cur is one of the executor's slabs (and may
// therefore be mutated in place). The returned slice is the chain's
// output activation, again flagged with ownership.
//
//ehlint:hotpath
func (e *Exec) runFloat(ops []step, cur []float32, owned bool) ([]float32, bool) {
	for si := range ops {
		st := &ops[si]
		switch st.kind {
		case opConv:
			// The layer walk's own lowering and GEMM kernel (AVX2 where
			// the CPU has it), so the sums are bit-identical to it.
			out := e.other(cur)
			tensor.Im2ColSlice(e.col, cur[:st.inShape.vol()], st.geom)
			tensor.GemmSerial(out, st.w, e.col, st.outC, st.colRows, st.colCols)
			spatial := st.colCols
			for oc := 0; oc < st.outC; oc++ {
				b := st.bias[oc]
				row := out[oc*spatial : (oc+1)*spatial]
				if st.fuseReLU {
					for i, v := range row {
						v += b
						if !(v > 0) { // matches nn.ReLU (NaN and -0 become +0)
							v = 0
						}
						row[i] = v
					}
				} else {
					for i := range row {
						row[i] += b
					}
				}
			}
			if st.quantBits > 0 {
				nn.FakeQuantizeSlice(out[:st.outShape.vol()], st.quantBits)
			}
			cur, owned = out, true

		case opDense:
			out := e.other(cur)
			tensor.GemmTransBSerial(out, cur[:st.in], st.w, 1, st.in, st.out)
			row := out[:st.out]
			if st.fuseReLU {
				for j, v := range row {
					v += st.bias[j]
					if !(v > 0) { // matches nn.ReLU (NaN and -0 become +0)
						v = 0
					}
					row[j] = v
				}
			} else {
				for j := range row {
					row[j] += st.bias[j]
				}
				if st.quantBits > 0 && !st.final {
					nn.FakeQuantizeSlice(row, st.quantBits)
				}
			}
			cur, owned = out, true

		case opReLU:
			n := st.inShape.vol()
			if owned {
				row := cur[:n]
				for i, v := range row {
					if !(v > 0) {
						row[i] = 0
					}
				}
			} else {
				out := e.other(cur)
				for i, v := range cur[:n] {
					if v > 0 {
						out[i] = v
					} else {
						out[i] = 0
					}
				}
				cur, owned = out, true
			}

		case opPool:
			out := e.other(cur)
			maxPoolFloat(out, cur, st.inShape, st.kernel, st.stride, st.outShape)
			cur, owned = out, true

		case opAvgPool:
			out := e.other(cur)
			avgPoolFloat(out, cur, st.inShape, st.kernel, st.stride, st.outShape)
			cur, owned = out, true
		}
	}
	return cur, owned
}

// maxPoolFloat mirrors nn.MaxPool2D.Forward's window walk exactly.
//
//ehlint:hotpath
func maxPoolFloat(dst, src []float32, in shape, kernel, stride int, out shape) {
	c, h, w := in.c, in.h, in.w
	oh, ow := out.h, out.w
	for ci := 0; ci < c; ci++ {
		planeBase := ci * h * w
		outBase := ci * oh * ow
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := src[planeBase+(oy*stride)*w+ox*stride]
				for ky := 0; ky < kernel; ky++ {
					rowBase := planeBase + (oy*stride+ky)*w
					for kx := 0; kx < kernel; kx++ {
						if v := src[rowBase+ox*stride+kx]; v > best {
							best = v
						}
					}
				}
				dst[outBase+oy*ow+ox] = best
			}
		}
	}
}

// avgPoolFloat mirrors nn.AvgPool2D.Forward exactly: each window sums in
// (ky, kx) order, then scales once by the reciprocal of its area.
//
//ehlint:hotpath
func avgPoolFloat(dst, src []float32, in shape, kernel, stride int, out shape) {
	c, h, w := in.c, in.h, in.w
	oh, ow := out.h, out.w
	inv := float32(1) / float32(kernel*kernel)
	for ci := 0; ci < c; ci++ {
		planeBase := ci * h * w
		outBase := ci * oh * ow
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var s float32
				for ky := 0; ky < kernel; ky++ {
					rowBase := planeBase + (oy*stride+ky)*w + ox*stride
					for kx := 0; kx < kernel; kx++ {
						s += src[rowBase+kx]
					}
				}
				dst[outBase+oy*ow+ox] = s * inv
			}
		}
	}
}
