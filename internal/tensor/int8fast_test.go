package tensor

import (
	"math/rand"
	"testing"
)

// refRequant mirrors requantFix for the reference GEMM path.
func refRequant(a, mul int32, shift uint) uint8 {
	if a <= 0 {
		return 0
	}
	q := (int64(a)*int64(mul) + int64(1)<<(shift-1)) >> shift
	if q > 255 {
		return 255
	}
	return uint8(q)
}

func randInt8(r *rand.Rand, n int) []int8 {
	out := make([]int8, n)
	for i := range out {
		out[i] = int8(r.Intn(256) - 128)
	}
	return out
}

func randUint8(r *rand.Rand, n int) []uint8 {
	out := make([]uint8, n)
	for i := range out {
		out[i] = uint8(r.Intn(256))
	}
	return out
}

// transposeU8 converts a row-major k×n matrix into the n×k column-panel
// layout the packed GEMM consumes.
func transposeU8(b []uint8, k, n int) []uint8 {
	bt := make([]uint8, k*n)
	for p := 0; p < k; p++ {
		for j := 0; j < n; j++ {
			bt[j*k+p] = b[p*n+j]
		}
	}
	return bt
}

// The reference integer kernels the packed ones are checked against:
// a plain ikj-order int8×uint8→int32 GEMM, a row-major uint8 im2col
// and a uint8 max pool, each written for clarity, not speed.

// matMulInt8Into computes dst = A×B with int32 accumulators: A is an
// m×k int8 matrix, B a k×n uint8 matrix, dst m×n and fully overwritten.
func matMulInt8Into(dst []int32, a []int8, b []uint8, m, k, n int) {
	for i := 0; i < m; i++ {
		crow := dst[i*n : (i+1)*n]
		for j := range crow {
			crow[j] = 0
		}
		for p, av := range a[i*k : (i+1)*k] {
			w := int32(av)
			for j, bv := range b[p*n : (p+1)*n] {
				crow[j] += w * int32(bv)
			}
		}
	}
}

// im2ColU8 lowers a uint8 CHW image into a [C*KH*KW, OutH*OutW]
// matrix, the integer twin of Im2ColSlice. Padded taps are the zero
// code.
func im2ColU8(dst, src []uint8, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	cols := outH * outW
	dst = dst[:g.InC*g.KH*g.KW*cols]
	for i := range dst {
		dst[i] = 0
	}
	for c := 0; c < g.InC; c++ {
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				row := (c*g.KH+kh)*g.KW + kw
				for oh := 0; oh < outH; oh++ {
					ih := oh*g.StrideH - g.PadH + kh
					if ih < 0 || ih >= g.InH {
						continue
					}
					for ow := 0; ow < outW; ow++ {
						iw := ow*g.StrideW - g.PadW + kw
						if iw >= 0 && iw < g.InW {
							dst[row*cols+oh*outW+ow] = src[(c*g.InH+ih)*g.InW+iw]
						}
					}
				}
			}
		}
	}
}

// maxPool2U8 applies kernel×kernel/stride max pooling to a uint8 CHW
// tensor and returns the output dims.
func maxPool2U8(dst, src []uint8, c, h, w, kernel, stride int) (outH, outW int) {
	outH = (h-kernel)/stride + 1
	outW = (w-kernel)/stride + 1
	for ci := 0; ci < c; ci++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				best := uint8(0)
				for ky := 0; ky < kernel; ky++ {
					for kx := 0; kx < kernel; kx++ {
						best = max(best, src[(ci*h+oy*stride+ky)*w+ox*stride+kx])
					}
				}
				dst[(ci*outH+oy)*outW+ox] = best
			}
		}
	}
	return outH, outW
}

// TestMatMulInt8Into checks the reference integer GEMM against a scalar
// triple loop.
func TestMatMulInt8Into(t *testing.T) {
	m, k, n := 3, 4, 5
	a := []int8{1, -2, 0, 3, -128, 127, 5, 0, 0, 0, -1, 2}
	b := make([]uint8, k*n)
	for i := range b {
		b[i] = uint8((i * 37) % 256)
	}
	dst := make([]int32, m*n)
	for i := range dst {
		dst[i] = -999 // must be overwritten
	}
	matMulInt8Into(dst, a, b, m, k, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var want int32
			for p := 0; p < k; p++ {
				want += int32(a[i*k+p]) * int32(b[p*n+j])
			}
			if dst[i*n+j] != want {
				t.Fatalf("dst[%d,%d] = %d, want %d", i, j, dst[i*n+j], want)
			}
		}
	}
}

// TestIm2ColU8MatchesFloat lowers the same image through the float
// im2col and the reference uint8 one and compares code for code.
func TestIm2ColU8MatchesFloat(t *testing.T) {
	g := ConvGeom{InC: 2, InH: 5, InW: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	imgU := make([]uint8, g.InC*g.InH*g.InW)
	imgF := make([]float32, len(imgU))
	for i := range imgU {
		imgU[i] = uint8((i*13)%255 + 1)
		imgF[i] = float32(imgU[i])
	}
	rows, cols := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
	colU := make([]uint8, rows*cols)
	for i := range colU {
		colU[i] = 77 // stale contents must be cleared
	}
	colF := make([]float32, rows*cols)
	im2ColU8(colU, imgU, g)
	Im2ColSlice(colF, imgF, g)
	for i := range colU {
		if float32(colU[i]) != colF[i] {
			t.Fatalf("col[%d]: u8 %d vs float %g", i, colU[i], colF[i])
		}
	}
}

// TestMaxPool2U8 checks the reference pool's geometry and max
// selection.
func TestMaxPool2U8(t *testing.T) {
	c, h, w := 2, 4, 4
	src := make([]uint8, c*h*w)
	for i := range src {
		src[i] = uint8(i)
	}
	dst := make([]uint8, c*2*2)
	oh, ow := maxPool2U8(dst, src, c, h, w, 2, 2)
	if oh != 2 || ow != 2 {
		t.Fatalf("out dims %dx%d, want 2x2", oh, ow)
	}
	// Each 2×2 window's max is its bottom-right element for this ramp.
	want := []uint8{5, 7, 13, 15, 21, 23, 29, 31}
	for i, v := range dst {
		if v != want[i] {
			t.Fatalf("dst[%d] = %d, want %d", i, v, want[i])
		}
	}
}

// unpackInt8 recovers the row-major weights from either packed layout.
func unpackInt8(p *PackedInt8) []int8 {
	m, k := p.m, p.k
	got := make([]int8, m*k)
	if p.w16 != nil {
		// 4-row panels of 16-deep chunks; the last chunk holds depths
		// k-16 … k-1, of which those already in a full chunk are zero.
		chunks := (k + 15) / 16
		for i := 0; i < m; i++ {
			for c := 0; c < chunks; c++ {
				chunk := p.w16[((i/4*chunks+c)*4+i%4)*16:][:16]
				for t, v := range chunk {
					d := c*16 + t
					if c == k/16 {
						if d = k - 16 + t; d < c*16 {
							continue
						}
					}
					got[i*k+d] = int8(v)
				}
			}
		}
		return got
	}
	// Full panels are K-major dual-lane uint64s (rows rebiased to
	// unsigned), the odd tail row plain int8.
	for pr := 0; pr < m/2; pr++ {
		for q := 0; q < k; q++ {
			v := p.panels[pr*k+q]
			got[(2*pr)*k+q] = int8(int16(uint8(v)) - 128)
			got[(2*pr+1)*k+q] = int8(int16(uint8(v>>32)) - 128)
		}
	}
	if m%2 == 1 {
		copy(got[(m-1)*k:m*k], p.tail)
	}
	return got
}

func TestPackInt8PanelsRoundTrip(t *testing.T) {
	for _, avx2 := range []bool{false, cpuHasAVX2()} {
		setAVX2(t, avx2)
		r := rand.New(rand.NewSource(1))
		for _, dims := range [][2]int{{1, 7}, {3, 5}, {4, 9}, {6, 75}, {17, 33}, {36, 150}, {5, 16}, {2, 32}} {
			m, k := dims[0], dims[1]
			w := randInt8(r, m*k)
			p := PackInt8Panels(w, m, k)
			if p.Rows() != m || p.Cols() != k {
				t.Fatalf("pack dims %dx%d, want %dx%d", p.Rows(), p.Cols(), m, k)
			}
			if (p.w16 != nil) != (avx2 && k >= 16) {
				t.Fatalf("avx2=%v %dx%d: packed the wrong layout", avx2, m, k)
			}
			got := unpackInt8(p)
			for idx := range w {
				if got[idx] != w[idx] {
					t.Fatalf("avx2=%v %dx%d: unpacked[%d] = %d, want %d", avx2, m, k, idx, got[idx], w[idx])
				}
			}
		}
	}
}

func TestPackInt8PanelsOverflowGuard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PackInt8Panels accepted an int32-unsafe reduction depth")
		}
	}()
	k := MaxInt8FastK + 1
	PackInt8Panels(make([]int8, k), 1, k)
}

func TestIm2ColU8PackedMatchesTranspose(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	geoms := []ConvGeom{
		{InC: 3, InH: 32, InW: 32, KH: 5, KW: 5, StrideH: 1, StrideW: 1},
		{InC: 6, InH: 14, InW: 14, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{InC: 2, InH: 9, InW: 7, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
	}
	for _, g := range geoms {
		src := randUint8(r, g.InC*g.InH*g.InW)
		rows := g.InC * g.KH * g.KW
		cols := g.OutH() * g.OutW()
		plain := make([]uint8, rows*cols)
		im2ColU8(plain, src, g)
		want := transposeU8(plain, rows, cols)
		got := make([]uint8, rows*cols)
		Im2ColU8Packed(got, src, g)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("geom %+v: packed[%d] = %d, want %d", g, i, got[i], want[i])
			}
		}
	}
}

// TestGemmInt8PackedReq pins the fused kernel against the reference
// pipeline (matMulInt8Into + bias + requant) across row counts covering
// every panel/tail combination and both column parities.
func TestGemmInt8PackedReq(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const mul, shift = 123456789, 33
	for _, m := range []int{1, 2, 3, 4, 5, 7, 8, 36} {
		for _, n := range []int{1, 2, 5, 25, 100} {
			k := 37
			w := randInt8(r, m*k)
			b := randUint8(r, k*n)
			bias := make([]int32, m)
			for i := range bias {
				bias[i] = int32(r.Intn(20001) - 10000)
			}
			acc := make([]int32, m*n)
			matMulInt8Into(acc, w, b, m, k, n)
			want := make([]uint8, m*n)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					want[i*n+j] = refRequant(acc[i*n+j]+bias[i], mul, shift)
				}
			}
			got := make([]uint8, m*n)
			GemmInt8PackedReq(got, PackInt8Panels(w, m, k), transposeU8(b, k, n), bias, n, mul, shift)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("m=%d n=%d: fused[%d] = %d, want %d", m, n, i, got[i], want[i])
				}
			}
		}
	}
}

func TestGemmInt8PackedDeq(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	const scale = 0.00125
	for _, m := range []int{1, 4, 5, 10} {
		k, n := 96, 1
		w := randInt8(r, m*k)
		b := randUint8(r, k*n)
		bias := make([]int32, m)
		for i := range bias {
			bias[i] = int32(r.Intn(2001) - 1000)
		}
		acc := make([]int32, m*n)
		matMulInt8Into(acc, w, b, m, k, n)
		got := make([]float32, m*n)
		GemmInt8PackedDeq(got, PackInt8Panels(w, m, k), transposeU8(b, k, n), bias, n, scale)
		for i := 0; i < m; i++ {
			want := float32(acc[i]+bias[i]) * scale
			if got[i] != want {
				t.Fatalf("m=%d: logit[%d] = %v, want %v", m, i, got[i], want)
			}
		}
	}
}

func TestMaxPool2U8IntoMatchesMaxPool2U8(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	c, h, w := 6, 28, 28
	src := randUint8(r, c*h*w)
	want := make([]uint8, c*14*14)
	oh, ow := maxPool2U8(want, src, c, h, w, 2, 2)
	got := make([]uint8, c*oh*ow)
	MaxPool2U8Into(got, src, c, h, w, 2, 2, oh, ow)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pool[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// Benchmarks comparing the fused packed kernel against the reference
// int8 pipeline on the repo's conv shapes (LeNet-EE conv1 and conv2).
func BenchmarkGemmInt8PackedConv1(b *testing.B) { benchPackedGemm(b, 6, 75, 784) }
func BenchmarkGemmInt8PackedConv2(b *testing.B) { benchPackedGemm(b, 36, 150, 100) }
func BenchmarkMatMulInt8IntoConv1(b *testing.B) { benchRefGemm(b, 6, 75, 784) }
func BenchmarkMatMulInt8IntoConv2(b *testing.B) { benchRefGemm(b, 36, 150, 100) }

func benchPackedGemm(b *testing.B, m, k, n int) {
	r := rand.New(rand.NewSource(6))
	w := PackInt8Panels(randInt8(r, m*k), m, k)
	bt := randUint8(r, k*n)
	bias := make([]int32, m)
	dst := make([]uint8, m*n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmInt8PackedReq(dst, w, bt, bias, n, 1<<20, 25)
	}
}

func benchRefGemm(b *testing.B, m, k, n int) {
	r := rand.New(rand.NewSource(6))
	w := randInt8(r, m*k)
	bb := randUint8(r, k*n)
	bias := make([]int32, m)
	acc := make([]int32, m*n)
	dst := make([]uint8, m*n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matMulInt8Into(acc, w, bb, m, k, n)
		for oc := 0; oc < m; oc++ {
			bv := bias[oc]
			accRow := acc[oc*n : (oc+1)*n]
			outRow := dst[oc*n : (oc+1)*n]
			for j, a := range accRow {
				outRow[j] = refRequant(a+bv, 1<<20, 25)
			}
		}
	}
}
