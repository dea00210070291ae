package tensor

import "fmt"

// MatMul computes C = A×B for 2-D tensors A (m×k) and B (k×n), returning a
// new m×n tensor. The inner loop is written ikj-order so the B row stays in
// cache; this is the workhorse behind both conv (via im2col) and dense
// layers.
func MatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires rank-2 tensors, got %v × %v", a.Shape(), b.Shape()))
	}
	m, k := a.Dim(0), a.Dim(1)
	k2, n := b.Dim(0), b.Dim(1)
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v × %v", a.Shape(), b.Shape()))
	}
	c := New(m, n)
	MatMulInto(c, a, b)
	return c
}

// MatMulInto computes dst = A×B, reusing dst's storage. dst must be m×n.
//
// Large products are partitioned into contiguous row bands executed on up
// to Workers() goroutines. Each band owns a disjoint slice of dst and runs
// the identical serial kernel, so the floating-point operation order per
// output row — and therefore the result, bit for bit — is independent of
// the worker count.
func MatMulInto(dst, a, b *Tensor) {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	if dst.Dim(0) != m || dst.Dim(1) != n {
		panic(fmt.Sprintf("tensor: MatMulInto dst shape %v, want [%d %d]", dst.Shape(), m, n))
	}
	ad, bd, cd := a.Data, b.Data, dst.Data
	if int64(m)*int64(k)*int64(n) < parallelFlopThreshold || Workers() == 1 {
		gemmRows(cd, ad, bd, 0, m, k, n)
		return
	}
	ParallelFor(m, func(lo, hi int) {
		gemmRows(cd, ad, bd, lo, hi, k, n)
	})
}

// MatMulSerialInto computes dst = A×B on the calling goroutine only.
// Use it inside an already-parallel region (e.g. a batch banded across
// workers) where MatMulInto's own fan-out would just oversubscribe the
// cores. Bit-identical to MatMulInto.
func MatMulSerialInto(dst, a, b *Tensor) {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	if dst.Dim(0) != m || dst.Dim(1) != n {
		panic(fmt.Sprintf("tensor: MatMulSerialInto dst shape %v, want [%d %d]", dst.Shape(), m, n))
	}
	gemmRows(dst.Data, a.Data, b.Data, 0, m, k, n)
}

// GemmSerial computes dst = A×B over raw row-major slices on the calling
// goroutine: A is m×k, B is k×n, dst is m×n and fully overwritten. It is
// the allocation-free kernel compiled inference plans (internal/plan)
// drive directly against arena storage for their conv steps, and it is
// bit-identical to MatMulInto at any worker count because both run the
// same per-row serial kernel.
func GemmSerial(dst, a, b []float32, m, k, n int) {
	if len(a) < m*k || len(b) < k*n || len(dst) < m*n {
		panic(fmt.Sprintf("tensor: GemmSerial slice sizes %d/%d/%d too small for %dx%dx%d", len(a), len(b), len(dst), m, k, n))
	}
	gemmRows(dst, a, b, 0, m, k, n)
}

// useAVX2 selects the AVX2 kernels (simd_amd64.s): the float GEMM
// behind MatMulInto, MatMulSerialInto and GemmSerial, and the int8
// layout PackInt8Panels packs. It is set once at start-up from CPUID
// and is false on every host without AVX2 and on every other
// architecture; tensor's own tests flip it to run both paths.
var useAVX2 = cpuHasAVX2()

// gemmRows computes output rows [lo, hi) of A×B on the kernel the host
// runs: the AVX2 kernel where the CPU has it, matMulRows elsewhere.
// Both give the same bits.
func gemmRows(cd, ad, bd []float32, lo, hi, k, n int) {
	if useAVX2 {
		matMulRowsAVX2(cd, ad, bd, lo, hi, k, n)
		return
	}
	matMulRows(cd, ad, bd, lo, hi, k, n)
}

// matMulRows runs the ikj-order kernel over output rows [lo, hi): the
// pure-Go kernel every host without AVX2 runs, and the reference the
// AVX2 kernel is tested against.
//
// Rows are processed four at a time so each B-row load feeds four
// accumulator rows — the kernel is load-bound, and the blocking roughly
// triples throughput on these LeNet-scale shapes. Bitwise the result is
// unchanged: every output element still accumulates its products in
// ascending p order, and adding a zero product (a lane whose a-value is
// 0 while a sibling lane's is not) is an exact identity for the finite
// activations these layers produce. The all-lanes-zero skip still fires
// on pruned input channels, which zero whole A columns. Each product is
// rounded to float32 before it is added (float32(a*b)), which the Go
// spec forbids fusing into a multiply-add, so arm64 rounds as amd64
// does.
func matMulRows(cd, ad, bd []float32, lo, hi, k, n int) {
	i := lo
	for ; i+4 <= hi; i += 4 {
		a0 := ad[i*k : (i+1)*k]
		a1 := ad[(i+1)*k : (i+2)*k]
		a2 := ad[(i+2)*k : (i+3)*k]
		a3 := ad[(i+3)*k : (i+4)*k]
		c0 := cd[i*n : (i+1)*n]
		c1 := cd[(i+1)*n : (i+2)*n]
		c2 := cd[(i+2)*n : (i+3)*n]
		c3 := cd[(i+3)*n : (i+4)*n]
		for j := range c0 {
			c0[j], c1[j], c2[j], c3[j] = 0, 0, 0, 0
		}
		for p := 0; p < k; p++ {
			av0, av1, av2, av3 := a0[p], a1[p], a2[p], a3[p]
			if av0 == 0 && av1 == 0 && av2 == 0 && av3 == 0 {
				continue
			}
			brow := bd[p*n : (p+1)*n]
			for j, bv := range brow {
				c0[j] += float32(av0 * bv)
				c1[j] += float32(av1 * bv)
				c2[j] += float32(av2 * bv)
				c3[j] += float32(av3 * bv)
			}
		}
	}
	for ; i < hi; i++ {
		arow := ad[i*k : (i+1)*k]
		crow := cd[i*n : (i+1)*n]
		for j := range crow {
			crow[j] = 0
		}
		for p, av := range arow {
			if av == 0 {
				continue
			}
			brow := bd[p*n : (p+1)*n]
			for j, bv := range brow {
				crow[j] += float32(av * bv)
			}
		}
	}
}

// MatMulTransB computes C = A×Bᵀ for A (m×k) and B (n×k), returning m×n.
// Used by dense-layer backward passes where the weight gradient naturally
// pairs transposed operands.
func MatMulTransB(a, b *Tensor) *Tensor {
	m, k := a.Dim(0), a.Dim(1)
	n, k2 := b.Dim(0), b.Dim(1)
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dimension mismatch %v × %vᵀ", a.Shape(), b.Shape()))
	}
	c := New(m, n)
	ad, bd, cd := a.Data, b.Data, c.Data
	if int64(m)*int64(k)*int64(n) < parallelFlopThreshold || Workers() == 1 {
		matMulTransBRows(cd, ad, bd, 0, m, k, n)
		return c
	}
	ParallelFor(m, func(lo, hi int) {
		matMulTransBRows(cd, ad, bd, lo, hi, k, n)
	})
	return c
}

// GemmTransBSerial computes dst = A×Bᵀ over raw row-major slices on the
// calling goroutine: A is m×k, B is n×k, dst is m×n and fully
// overwritten. Bit-identical to MatMulTransB (each output element is one
// self-contained dot product, so banding never changes it); compiled
// float plans use it for dense steps.
func GemmTransBSerial(dst, a, b []float32, m, k, n int) {
	if len(a) < m*k || len(b) < n*k || len(dst) < m*n {
		panic(fmt.Sprintf("tensor: GemmTransBSerial slice sizes %d/%d/%d too small for %dx%dx%d", len(a), len(b), len(dst), m, k, n))
	}
	matMulTransBRows(dst, a, b, 0, m, k, n)
}

// matMulTransBRows runs the dot-product kernel over output rows [lo, hi).
//
// The hot path dots six B rows (output columns) per A-row pass: six
// independent accumulator chains hide the FP-add latency a single dot
// product serializes on, and each loaded a-value feeds six accumulators.
// Per-element accumulation order is unchanged (ascending p), so results
// are bit-identical to the plain loop; 1x6 with no inner branch measured
// fastest across this repo's dense shapes. Products are rounded before
// the add, as in matMulRows. It is pure Go on every host.
func matMulTransBRows(cd, ad, bd []float32, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		arow := ad[i*k : (i+1)*k]
		crow := cd[i*n : (i+1)*n]
		j := 0
		for ; j+6 <= n; j += 6 {
			b0 := bd[j*k : (j+1)*k]
			b1 := bd[(j+1)*k : (j+2)*k]
			b2 := bd[(j+2)*k : (j+3)*k]
			b3 := bd[(j+3)*k : (j+4)*k]
			b4 := bd[(j+4)*k : (j+5)*k]
			b5 := bd[(j+5)*k : (j+6)*k]
			var s0, s1, s2, s3, s4, s5 float32
			for p, av := range arow {
				s0 += float32(av * b0[p])
				s1 += float32(av * b1[p])
				s2 += float32(av * b2[p])
				s3 += float32(av * b3[p])
				s4 += float32(av * b4[p])
				s5 += float32(av * b5[p])
			}
			crow[j], crow[j+1], crow[j+2] = s0, s1, s2
			crow[j+3], crow[j+4], crow[j+5] = s3, s4, s5
		}
		for ; j < n; j++ {
			brow := bd[j*k : (j+1)*k]
			var s float32
			for p, av := range arow {
				s += float32(av * brow[p])
			}
			crow[j] = s
		}
	}
}

// MatMulTransA computes C = Aᵀ×B for A (k×m) and B (k×n), returning m×n.
func MatMulTransA(a, b *Tensor) *Tensor {
	k, m := a.Dim(0), a.Dim(1)
	k2, n := b.Dim(0), b.Dim(1)
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dimension mismatch %vᵀ × %v", a.Shape(), b.Shape()))
	}
	c := New(m, n)
	ad, bd, cd := a.Data, b.Data, c.Data
	for p := 0; p < k; p++ {
		arow := ad[p*m : (p+1)*m]
		brow := bd[p*n : (p+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			crow := cd[i*n : (i+1)*n]
			for j, bv := range brow {
				crow[j] += float32(av * bv)
			}
		}
	}
	return c
}

// Transpose2D returns the transpose of a rank-2 tensor.
func Transpose2D(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: Transpose2D requires rank-2, got %v", a.Shape()))
	}
	m, n := a.Dim(0), a.Dim(1)
	t := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			t.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return t
}
