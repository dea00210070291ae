package tensor

import (
	"encoding/binary"
	"fmt"
)

// Packed integer kernels for the int8 inference backend
// (plan.CompileInt8Fast). Rather than keep the layer walk's operand
// layouts, they restructure the integer pipeline for throughput:
//
//   - Weights are repacked ONCE, at plan-compile time, into K-major
//     dual-row panels (PackInt8Panels): each panel interleaves two
//     output rows, rebiased to unsigned, into the 32-bit lanes of one
//     uint64 per K step. A single 64-bit multiply by an activation byte
//     then computes BOTH rows' products exactly (each lane product is
//     < 2^16, so lanes never interfere), doubling multiplier throughput
//     over one-product-per-multiply scalar code — the scalar-ISA
//     equivalent of a SIMD dot-product unit. The unsigned rebias adds
//     128·Σb to every accumulator; the GEMM subtracts that per-column
//     sum back out in the epilogue.
//   - Activations flow through the transposed im2col layout
//     (Im2ColU8Packed), written directly in the column-major panel
//     order the GEMM consumes, so every accumulator lives in a register
//     for the whole dot product instead of sweeping an int32 output row
//     per tap.
//   - The requantize+ReLU epilogue is fused into the GEMM
//     (GemmInt8PackedReq): accumulators go straight from registers to
//     uint8 activation codes through an integer fixed-point multiplier
//     (mul, shift), never touching an int32 accumulator slab or a float
//     unit. Classifier heads use GemmInt8PackedDeq, the one place the
//     fast integer pipeline dequantizes to float32 logits.
//
// On a CPU with AVX2 (useAVX2) the weights are packed instead as int16
// 4-row panels (packInt8AVX2) and the dot products run in
// dotInt8x4AVX2: activation bytes zero-extended to int16, multiplied
// and pair-summed exactly by VPMADDWD, reduced horizontally, then put
// through the same requantization or dequantization epilogue. Every
// other host runs the dual-lane kernels above.
//
// Both kernels compute every accumulator exactly in int32, so their
// results are the same bits on every host (integer adds are
// associative) — just not bit-equal to the float reference; the
// backend's accuracy contract against float is statistical (per-exit
// accuracy within ε), enforced by plan's parity tests.

// int8PanelRows is the row width of a packed weight panel: two output
// rows share every activation load AND every multiply through the
// dual-lane uint64 trick; the GEMM hot loop runs two panels (4 rows)
// per pass, matching the float kernels' 4-wide row blocking.
const int8PanelRows = 2

// int8AVX2Cols bounds the activation columns one AVX2 dot-kernel call
// covers, so its 4×int8AVX2Cols int32 sums fit a stack array.
const int8AVX2Cols = 64

// MaxInt8FastK bounds the reduction depth of the packed kernels: a
// k-deep unsigned lane accumulates at most k·255·255, which must stay
// below 2^31 so lane extraction fits int32 (and lanes can never carry
// into each other); the AVX2 kernel's signed sums stay below k·128·255.
// The compile layer rejects deeper layers.
const MaxInt8FastK = (1 << 31) / (255 * 255)

// PackedInt8 is an m×k int8 weight matrix repacked for the fused
// integer GEMM of the host's kernel. For the dual-lane kernel: full
// panels of int8PanelRows rows rebiased to unsigned (w+128) and
// interleaved K-major into uint64 lane pairs, followed by one plain
// int8 tail row when m is odd. For the AVX2 kernel: int16 4-row panels
// (w16). Packing happens once at plan-compile time; the pack is
// immutable and safe to share across executors.
type PackedInt8 struct {
	panels []uint64 // pair p of rows (2p, 2p+1): panels[p*k+q] = lo|hi lanes
	tail   []int8   // last row, row-major, when m is odd
	w16    []int16  // the AVX2 layout (packInt8AVX2); nil for the dual-lane one
	m, k   int
}

// Rows returns the packed matrix's row count (output channels).
func (p *PackedInt8) Rows() int { return p.m }

// Cols returns the packed matrix's column count (reduction depth).
func (p *PackedInt8) Cols() int { return p.k }

// PackInt8Panels repacks a row-major m×k int8 weight matrix into the
// layout the host's fused integer GEMM consumes: the AVX2 panels when
// the CPU has AVX2 and k is at least 16, the dual-lane panels
// otherwise. It panics when the reduction depth could overflow lane
// accumulation — the compile layer must reject such layers rather than
// serve wrong answers.
func PackInt8Panels(w []int8, m, k int) *PackedInt8 {
	if len(w) < m*k {
		panic(fmt.Sprintf("tensor: PackInt8Panels weight slice %d too small for %dx%d", len(w), m, k))
	}
	if k > MaxInt8FastK {
		panic(fmt.Sprintf("tensor: PackInt8Panels reduction depth %d exceeds lane-safe bound %d", k, MaxInt8FastK))
	}
	p := &PackedInt8{m: m, k: k}
	if useAVX2 && k >= 16 {
		p.w16 = packInt8AVX2(w, m, k)
		return p
	}
	pairs := m / 2
	p.panels = make([]uint64, pairs*k)
	for pr := 0; pr < pairs; pr++ {
		r0 := w[(2*pr)*k : (2*pr+1)*k]
		r1 := w[(2*pr+1)*k : (2*pr+2)*k]
		dst := p.panels[pr*k : (pr+1)*k]
		for q := range dst {
			lo := uint64(uint8(int16(r0[q]) + 128))
			hi := uint64(uint8(int16(r1[q]) + 128))
			dst[q] = lo | hi<<32
		}
	}
	if m%2 == 1 {
		p.tail = make([]int8, k)
		copy(p.tail, w[(m-1)*k:m*k])
	}
	return p
}

// Im2ColU8Packed lowers a uint8 CHW image into the transposed im2col
// layout [OutH*OutW, C*KH*KW] — one contiguous column of filter taps
// per output position, written directly in the order the packed GEMM
// consumes (no separate transpose pass). Padded taps are the zero code,
// exact for the backend's unsigned zero-point-0 quantization.
//
//ehlint:hotpath
func Im2ColU8Packed(dst, src []uint8, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	rows := g.InC * g.KH * g.KW
	cols := outH * outW
	if len(src) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Im2ColU8Packed image volume %d does not match geometry %+v", len(src), g))
	}
	if len(dst) < rows*cols {
		panic(fmt.Sprintf("tensor: Im2ColU8Packed dst length %d below %d for geometry %+v", len(dst), rows*cols, g))
	}
	d := 0
	for oh := 0; oh < outH; oh++ {
		for ow := 0; ow < outW; ow++ {
			iw0 := ow*g.StrideW - g.PadW
			interiorW := iw0 >= 0 && iw0+g.KW <= g.InW
			for c := 0; c < g.InC; c++ {
				chanBase := c * g.InH * g.InW
				for kh := 0; kh < g.KH; kh++ {
					ih := oh*g.StrideH - g.PadH + kh
					if ih < 0 || ih >= g.InH {
						for kw := 0; kw < g.KW; kw++ {
							dst[d] = 0
							d++
						}
						continue
					}
					srcRow := src[chanBase+ih*g.InW:]
					if interiorW {
						// Fully in-bounds tap row: the common kernel widths
						// copy as one fixed-size array assignment (a couple
						// of word moves) instead of a per-byte loop.
						switch g.KW {
						case 5:
							*(*[5]uint8)(dst[d:]) = *(*[5]uint8)(srcRow[iw0:])
						case 3:
							*(*[3]uint8)(dst[d:]) = *(*[3]uint8)(srcRow[iw0:])
						default:
							copy(dst[d:d+g.KW], srcRow[iw0:iw0+g.KW])
						}
						d += g.KW
						continue
					}
					iw := iw0
					for kw := 0; kw < g.KW; kw++ {
						if iw < 0 || iw >= g.InW {
							dst[d] = 0
						} else {
							dst[d] = srcRow[iw]
						}
						d++
						iw++
					}
				}
			}
		}
	}
}

// requantFix requantizes one int32 accumulator to a uint8 activation
// code through the integer fixed-point multiplier (mul, shift):
// q = round(a · mul / 2^shift), saturating at 255. ReLU is the a <= 0
// clamp. shift is at least 1, so the rounding bias never underflows.
//
//ehlint:hotpath
func requantFix(a, mul int32, shift uint) uint8 {
	if a <= 0 {
		return 0
	}
	q := (int64(a)*int64(mul) + int64(1)<<(shift-1)) >> shift
	if q > 255 {
		return 255
	}
	return uint8(q)
}

// colSumU8 returns 128·Σ(column bytes) — the unsigned-rebias correction
// every lane accumulator of that column carries.
//
//ehlint:hotpath
func colSumU8(c []uint8) int32 {
	// SWAR over 64-bit loads: split each 8-byte word into odd and even
	// bytes spread across 16-bit lanes and add — one load plus four ALU
	// ops sums eight bytes. A 16-bit lane holds at most 2·255 per word,
	// so lanes are folded out every 64 words, well before they carry.
	const mask = 0x00ff00ff00ff00ff
	var s uint64
	p := 0
	for n := len(c) &^ 7; p < n; {
		lim := p + 64*8
		if lim > n {
			lim = n
		}
		var acc uint64
		for ; p < lim; p += 8 {
			v := binary.LittleEndian.Uint64(c[p:])
			acc += v&mask + v>>8&mask
		}
		s += acc&0xffff + acc>>16&0xffff + acc>>32&0xffff + acc>>48&0xffff
	}
	t := int32(s)
	for ; p < len(c); p++ {
		t += int32(c[p])
	}
	return t * 128
}

// GemmInt8PackedReq computes dst = requant(W×B + bias) in one fused
// pass: W is a packed m×k int8 weight matrix, bt the TRANSPOSED k-deep
// activation matrix ([n][k] uint8, one contiguous column per output
// position, e.g. from Im2ColU8Packed), bias the per-row int32
// accumulator offsets, and (mul, shift) the layer's fixed-point
// requantization pair. dst is row-major m×n uint8 and fully
// overwritten.
//
// The hot loop runs two dual-lane panels (4 output rows) against two
// activation columns at once: per K step it issues four 64-bit
// multiplies that yield EIGHT products into four lane-pair
// accumulators, and the epilogue extracts lanes, subtracts the
// unsigned-rebias correction, and requantizes straight out of
// registers.
//
//ehlint:hotpath
func GemmInt8PackedReq(dst []uint8, w *PackedInt8, bt []uint8, bias []int32, n int, mul int32, shift uint) {
	m, k := w.m, w.k
	if len(dst) < m*n || len(bt) < k*n || len(bias) < m {
		panic(fmt.Sprintf("tensor: GemmInt8PackedReq slice sizes %d/%d/%d too small for %dx%dx%d", len(dst), len(bt), len(bias), m, k, n))
	}
	if w.w16 != nil {
		var sums [4 * int8AVX2Cols]int32
		for i := 0; i < m; i += 4 {
			rows := min(4, m-i)
			for j0 := 0; j0 < n; j0 += int8AVX2Cols {
				nc := min(int8AVX2Cols, n-j0)
				w.dotAVX2(&sums, i, bt[j0*k:(j0+nc)*k], nc)
				for r := 0; r < rows; r++ {
					b := bias[i+r]
					drow := dst[(i+r)*n+j0:][:nc]
					for jj := range drow {
						drow[jj] = requantFix(sums[4*jj+r]+b, mul, shift)
					}
				}
			}
		}
		return
	}
	pairs := m / 2
	for j := 0; j < n; j += 2 {
		c0 := bt[j*k : j*k+k : j*k+k]
		wide := j+1 < n
		var c1 []uint8
		s1 := int32(0)
		if wide {
			c1 = bt[(j+1)*k : (j+1)*k+k : (j+1)*k+k]
			s1 = colSumU8(c1)
		}
		s0 := colSumU8(c0)
		pr := 0
		// Widest block first: three dual-lane panels (6 output rows)
		// against two columns — twelve products per K step from six
		// multiplies, one pass over the columns for a whole LeNet conv1.
		for ; wide && pr+3 <= pairs; pr += 3 {
			wpA := w.panels[pr*k:][:len(c0)]
			wpB := w.panels[(pr+1)*k:][:len(c0)]
			wpC := w.panels[(pr+2)*k:][:len(c0)]
			c1v := c1[:len(c0)]
			var a00, a01, a10, a11, a20, a21 uint64
			for p, v := range c0 {
				w0 := wpA[p]
				w1 := wpB[p]
				w2 := wpC[p]
				v0 := uint64(v)
				v1 := uint64(c1v[p])
				a00 += w0 * v0
				a01 += w0 * v1
				a10 += w1 * v0
				a11 += w1 * v1
				a20 += w2 * v0
				a21 += w2 * v1
			}
			i := 2 * pr
			dst[i*n+j] = requantFix(int32(uint32(a00))+bias[i]-s0, mul, shift)
			dst[i*n+j+1] = requantFix(int32(uint32(a01))+bias[i]-s1, mul, shift)
			dst[(i+1)*n+j] = requantFix(int32(uint32(a00>>32))+bias[i+1]-s0, mul, shift)
			dst[(i+1)*n+j+1] = requantFix(int32(uint32(a01>>32))+bias[i+1]-s1, mul, shift)
			dst[(i+2)*n+j] = requantFix(int32(uint32(a10))+bias[i+2]-s0, mul, shift)
			dst[(i+2)*n+j+1] = requantFix(int32(uint32(a11))+bias[i+2]-s1, mul, shift)
			dst[(i+3)*n+j] = requantFix(int32(uint32(a10>>32))+bias[i+3]-s0, mul, shift)
			dst[(i+3)*n+j+1] = requantFix(int32(uint32(a11>>32))+bias[i+3]-s1, mul, shift)
			dst[(i+4)*n+j] = requantFix(int32(uint32(a20))+bias[i+4]-s0, mul, shift)
			dst[(i+4)*n+j+1] = requantFix(int32(uint32(a21))+bias[i+4]-s1, mul, shift)
			dst[(i+5)*n+j] = requantFix(int32(uint32(a20>>32))+bias[i+5]-s0, mul, shift)
			dst[(i+5)*n+j+1] = requantFix(int32(uint32(a21>>32))+bias[i+5]-s1, mul, shift)
		}
		for ; wide && pr+2 <= pairs; pr += 2 {
			// Re-slicing everything to len(c0) lets the compiler drop
			// bounds checks on all four streams in the hot loop.
			wpA := w.panels[pr*k:][:len(c0)]
			wpB := w.panels[(pr+1)*k:][:len(c0)]
			c1v := c1[:len(c0)]
			var a00, a01, a10, a11 uint64
			for p, v := range c0 {
				w0 := wpA[p]
				w1 := wpB[p]
				v0 := uint64(v)
				v1 := uint64(c1v[p])
				a00 += w0 * v0
				a01 += w0 * v1
				a10 += w1 * v0
				a11 += w1 * v1
			}
			i := 2 * pr
			dst[i*n+j] = requantFix(int32(uint32(a00))+bias[i]-s0, mul, shift)
			dst[i*n+j+1] = requantFix(int32(uint32(a01))+bias[i]-s1, mul, shift)
			dst[(i+1)*n+j] = requantFix(int32(uint32(a00>>32))+bias[i+1]-s0, mul, shift)
			dst[(i+1)*n+j+1] = requantFix(int32(uint32(a01>>32))+bias[i+1]-s1, mul, shift)
			dst[(i+2)*n+j] = requantFix(int32(uint32(a10))+bias[i+2]-s0, mul, shift)
			dst[(i+2)*n+j+1] = requantFix(int32(uint32(a11))+bias[i+2]-s1, mul, shift)
			dst[(i+3)*n+j] = requantFix(int32(uint32(a10>>32))+bias[i+3]-s0, mul, shift)
			dst[(i+3)*n+j+1] = requantFix(int32(uint32(a11>>32))+bias[i+3]-s1, mul, shift)
		}
		for ; pr < pairs; pr++ {
			wp := w.panels[pr*k:][:len(c0)]
			var a0, a1 uint64
			if wide {
				c1v := c1[:len(c0)]
				for p, v := range c0 {
					wv := wp[p]
					a0 += wv * uint64(v)
					a1 += wv * uint64(c1v[p])
				}
			} else {
				for p, v := range c0 {
					a0 += wp[p] * uint64(v)
				}
			}
			i := 2 * pr
			dst[i*n+j] = requantFix(int32(uint32(a0))+bias[i]-s0, mul, shift)
			dst[(i+1)*n+j] = requantFix(int32(uint32(a0>>32))+bias[i+1]-s0, mul, shift)
			if wide {
				dst[i*n+j+1] = requantFix(int32(uint32(a1))+bias[i]-s1, mul, shift)
				dst[(i+1)*n+j+1] = requantFix(int32(uint32(a1>>32))+bias[i+1]-s1, mul, shift)
			}
		}
		if w.tail != nil {
			i := m - 1
			var a0, a1 int32
			for p, wv := range w.tail {
				wv32 := int32(wv)
				a0 += wv32 * int32(c0[p])
				if wide {
					a1 += wv32 * int32(c1[p])
				}
			}
			dst[i*n+j] = requantFix(a0+bias[i], mul, shift)
			if wide {
				dst[i*n+j+1] = requantFix(a1+bias[i], mul, shift)
			}
		}
	}
}

// GemmInt8PackedDeq is the classifier-head variant of GemmInt8PackedReq:
// instead of requantizing, it dequantizes the int32 accumulators to
// float32 logits (dst[i*n+j] = float32(acc) · scale) — the single place
// the fast integer pipeline touches the float unit.
//
//ehlint:hotpath
func GemmInt8PackedDeq(dst []float32, w *PackedInt8, bt []uint8, bias []int32, n int, scale float32) {
	m, k := w.m, w.k
	if len(dst) < m*n || len(bt) < k*n || len(bias) < m {
		panic(fmt.Sprintf("tensor: GemmInt8PackedDeq slice sizes %d/%d/%d too small for %dx%dx%d", len(dst), len(bt), len(bias), m, k, n))
	}
	if w.w16 != nil {
		var sums [4 * int8AVX2Cols]int32
		for i := 0; i < m; i += 4 {
			rows := min(4, m-i)
			for j0 := 0; j0 < n; j0 += int8AVX2Cols {
				nc := min(int8AVX2Cols, n-j0)
				w.dotAVX2(&sums, i, bt[j0*k:(j0+nc)*k], nc)
				for r := 0; r < rows; r++ {
					b := bias[i+r]
					drow := dst[(i+r)*n+j0:][:nc]
					for jj := range drow {
						drow[jj] = float32(sums[4*jj+r]+b) * scale
					}
				}
			}
		}
		return
	}
	pairs := m / 2
	for j := 0; j < n; j++ {
		c0 := bt[j*k : j*k+k : j*k+k]
		s0 := colSumU8(c0)
		for pr := 0; pr < pairs; pr++ {
			wp := w.panels[pr*k:][:len(c0)]
			var a0 uint64
			for p, v := range c0 {
				a0 += wp[p] * uint64(v)
			}
			i := 2 * pr
			dst[i*n+j] = float32(int32(uint32(a0))+bias[i]-s0) * scale
			dst[(i+1)*n+j] = float32(int32(uint32(a0>>32))+bias[i+1]-s0) * scale
		}
		if w.tail != nil {
			i := m - 1
			var a int32
			for p, wv := range w.tail {
				a += int32(wv) * int32(c0[p])
			}
			dst[i*n+j] = float32(a+bias[i]) * scale
		}
	}
}

// MaxPool2U8Into applies kernel×kernel/stride max pooling to a uint8
// CHW tensor with precomputed output dims (max pooling commutes with
// monotone quantization, so it runs on the integer codes directly):
// the integer exec path's pooling step, with no dim recompute in the
// hot loop.
//
//ehlint:hotpath
func MaxPool2U8Into(dst, src []uint8, c, h, w, kernel, stride, outH, outW int) {
	if len(src) < c*h*w || len(dst) < c*outH*outW {
		panic(fmt.Sprintf("tensor: MaxPool2U8Into slice sizes %d/%d too small for %dx%dx%d", len(src), len(dst), c, h, w))
	}
	if kernel == 2 && stride == 2 {
		// The architecture's only pooling shape: max over 2×2 windows,
		// two row slices per output row, no per-window index math.
		for ci := 0; ci < c; ci++ {
			planeBase := ci * h * w
			outBase := ci * outH * outW
			for oy := 0; oy < outH; oy++ {
				r0 := src[planeBase+2*oy*w:][:outW*2]
				r1 := src[planeBase+(2*oy+1)*w:][:outW*2]
				orow := dst[outBase+oy*outW:][:outW]
				for ox := range orow {
					best := r0[2*ox]
					if v := r0[2*ox+1]; v > best {
						best = v
					}
					if v := r1[2*ox]; v > best {
						best = v
					}
					if v := r1[2*ox+1]; v > best {
						best = v
					}
					orow[ox] = best
				}
			}
		}
		return
	}
	for ci := 0; ci < c; ci++ {
		planeBase := ci * h * w
		outBase := ci * outH * outW
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				best := src[planeBase+(oy*stride)*w+ox*stride]
				for ky := 0; ky < kernel; ky++ {
					rowBase := planeBase + (oy*stride+ky)*w
					for kx := 0; kx < kernel; kx++ {
						if v := src[rowBase+ox*stride+kx]; v > best {
							best = v
						}
					}
				}
				dst[outBase+oy*outW+ox] = best
			}
		}
	}
}
