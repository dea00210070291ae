package plan

import "repro/internal/tensor"

// Int8 execution: the packed-weight integer pipeline behind
// CompileInt8Fast. Uint8 activation codes flow between steps, and every
// weighted layer runs the fused packed GEMM (tensor.GemmInt8PackedReq:
// the AVX2 kernel on amd64 CPUs with AVX2, the dual-lane pure-Go kernel
// elsewhere) against weights repacked at compile time: im2col writes
// directly in the transposed column order the kernel consumes, each
// dot product is summed exactly in int32, and requantize+ReLU happens
// in the GEMM epilogue through the layer's fixed-point (multiplier, shift)
// pair (negative accumulators clamp to the zero code). Classifier heads
// dequantize accumulators to float32 logits, so State.Predicted and
// Confidence work identically across backends.
//
// Every step is integer arithmetic up to that last float32 multiply, so
// the logits are a deterministic function of weights and input at any
// lane count. Against the float backend the contract is statistical,
// pinned by TestInt8FastStatisticalParity.

// inferToInt8 is InferTo for int8 plans.
//
//ehlint:hotpath
func (e *Exec) inferToInt8(dst *State, img *tensor.Tensor, exit int) {
	p := e.p
	cur := e.bufA8[:p.geom.Vol()]
	quantizeInput(cur, img.Data)
	for i := 0; i <= exit; i++ {
		cur = e.runInt8Fast(p.segments[i], cur)
	}
	e.checkpointInt8(dst, cur, exit)
	e.runBranchInt8(dst, cur, exit)
}

// quantizeInput quantizes a [0,1] input image to 8-bit codes (scale
// 1/255).
//
//ehlint:hotpath
func quantizeInput(dst []uint8, src []float32) {
	for i, v := range src {
		// The conversion rounds the product before the +0.5 below: a
		// fused multiply-add would round once and could pick another
		// code on a platform that fuses.
		f := float32(v * 255)
		switch {
		case !(f > 0): // negatives and NaN clamp to the zero code
			dst[i] = 0
		case f >= 255:
			dst[i] = 255
		default:
			dst[i] = uint8(f + 0.5)
		}
	}
}

// resumeInt8 is Resume for int8 plans.
//
//ehlint:hotpath
func (e *Exec) resumeInt8(dst *State, exit int) {
	p := e.p
	cur := dst.trunk8[:dst.trunkShape.vol()]
	for i := dst.Exit + 1; i <= exit; i++ {
		cur = e.runInt8Fast(p.segments[i], cur)
	}
	e.checkpointInt8(dst, cur, exit)
	e.runBranchInt8(dst, cur, exit)
}

//
//ehlint:hotpath
func (e *Exec) checkpointInt8(dst *State, cur []uint8, exit int) {
	sh := e.p.trunkShapes[exit]
	copy(dst.trunk8[:sh.vol()], cur[:sh.vol()])
	dst.trunkShape = sh
}

// runBranchInt8 executes branch `exit` and lands the dequantized logits
// in the state.
//
//ehlint:hotpath
func (e *Exec) runBranchInt8(dst *State, cur []uint8, exit int) {
	e.runInt8Fast(e.p.branches[exit], cur)
	dst.Exit = exit
	// The final dense step wrote dst-bound logits into e.logitsOut.
	copy(dst.logits, e.logitsOut[:e.p.classes])
}

// otherU8 mirrors other() for the integer slabs.
//
//ehlint:hotpath
func (e *Exec) otherU8(cur []uint8) []uint8 {
	if len(cur) > 0 && len(e.bufA8) > 0 && &cur[0] == &e.bufA8[0] {
		return e.bufB8
	}
	return e.bufA8
}

// runInt8Fast executes one step chain through the packed kernels.
// Classifier heads (deqScale > 0) emit float32 logits into e.logitsOut
// instead of codes.
//
//ehlint:hotpath
func (e *Exec) runInt8Fast(ops []step, cur []uint8) []uint8 {
	for si := range ops {
		st := &ops[si]
		switch st.kind {
		case opConv:
			out := e.otherU8(cur)
			tensor.Im2ColU8Packed(e.col8, cur[:st.inShape.vol()], st.geom)
			tensor.GemmInt8PackedReq(out, st.wpk, e.col8, st.biasAcc, st.colCols, st.mulFix, st.shiftFix)
			cur = out

		case opDense:
			// The flattened activation vector IS one k-deep column, so
			// dense layers are the n=1 case of the packed GEMM.
			x := cur[:st.in]
			if st.deqScale > 0 {
				tensor.GemmInt8PackedDeq(e.logitsOut, st.wpk, x, st.biasAcc, 1, st.deqScale)
				return cur
			}
			out := e.otherU8(cur)
			tensor.GemmInt8PackedReq(out, st.wpk, x, st.biasAcc, 1, st.mulFix, st.shiftFix)
			cur = out

		case opPool:
			out := e.otherU8(cur)
			tensor.MaxPool2U8Into(out, cur, st.inShape.c, st.inShape.h, st.inShape.w, st.kernel, st.stride, st.outShape.h, st.outShape.w)
			cur = out
		}
	}
	return cur
}
