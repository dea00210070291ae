package tensor

import "fmt"

// cpuid executes CPUID for the given leaf and sub-leaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register XCR0.
func xgetbv() (eax, edx uint32)

// cpuHasAVX2 reports whether the CPU has AVX2 (CPUID leaf 7) and the
// operating system saves the YMM registers across context switches
// (OSXSAVE, then XCR0's SSE and AVX state bits).
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

//go:noescape
func gemmF32x4AVX2(c, a, b *float32, k, n int)

//go:noescape
func gemmF32x1AVX2(c, a, b *float32, k, n int)

//go:noescape
func dotInt8x4AVX2(sums *int32, w *int16, x *uint8, k, n int)

// matMulRowsAVX2 is matMulRows on the AVX2 kernels: the same four-row
// blocks from lo with single-row tails, the same all-zero skip, and
// every output element's products added in ascending p with a separate
// multiply and add, so the result is matMulRows' bit for bit.
func matMulRowsAVX2(cd, ad, bd []float32, lo, hi, k, n int) {
	if lo >= hi || n == 0 {
		return
	}
	if len(cd) < hi*n || len(ad) < hi*k || len(bd) < k*n {
		panic(fmt.Sprintf("tensor: matMulRowsAVX2 slice sizes %d/%d/%d too small for rows [%d,%d) of %dx%d", len(cd), len(ad), len(bd), lo, hi, k, n))
	}
	if k == 0 {
		clear(cd[lo*n : hi*n])
		return
	}
	i := lo
	for ; i+4 <= hi; i += 4 {
		gemmF32x4AVX2(&cd[i*n], &ad[i*k], &bd[0], k, n)
	}
	for ; i < hi; i++ {
		gemmF32x1AVX2(&cd[i*n], &ad[i*k], &bd[0], k, n)
	}
}

// packInt8AVX2 packs a row-major m×k int8 matrix (k >= 16) for
// dotInt8x4AVX2: panels of 4 rows (the last one zero-padded), each a
// sequence of 16-deep K chunks holding the 4 rows' 16 weights as int16.
// When k is not a multiple of 16 the kernel reads each column's last
// chunk from its final 16 bytes, overlapping the previous chunk, so the
// last chunk's lanes below k/16·16 hold zeros and lane t the weight of
// depth k-16+t.
func packInt8AVX2(w []int8, m, k int) []int16 {
	full, chunks := k/16, (k+15)/16
	out := make([]int16, (m+3)/4*chunks*64)
	for i := 0; i < m; i++ {
		row := w[i*k : (i+1)*k]
		panel := out[i/4*chunks*64:]
		for c := 0; c < chunks; c++ {
			dst := panel[(c*4+i%4)*16:][:16]
			if c < full {
				for t := range dst {
					dst[t] = int16(row[c*16+t])
				}
				continue
			}
			for t := range dst {
				if p := k - 16 + t; p >= full*16 {
					dst[t] = int16(row[p])
				}
			}
		}
	}
	return out
}

// dotAVX2 fills sums[4j+r] with the exact int32 dot products of weight
// rows i..i+3 and the nc activation columns of x (nc <= int8AVX2Cols,
// k bytes each). Rows past m are zero padding and sum to 0.
//
//ehlint:hotpath
func (p *PackedInt8) dotAVX2(sums *[4 * int8AVX2Cols]int32, i int, x []uint8, nc int) {
	chunks := (p.k + 15) / 16
	panel := p.w16[i/4*chunks*64:][:chunks*64]
	if p.k < 16 || nc > int8AVX2Cols || len(x) < nc*p.k {
		panic(fmt.Sprintf("tensor: dotAVX2 %d columns of depth %d over %d bytes", nc, p.k, len(x)))
	}
	if nc == 0 {
		return
	}
	dotInt8x4AVX2(&sums[0], &panel[0], &x[0], p.k, nc)
}
