//go:build !amd64

package tensor

// Hosts other than amd64 run the pure-Go kernels only.

func cpuHasAVX2() bool { return false }

func matMulRowsAVX2(cd, ad, bd []float32, lo, hi, k, n int) {
	panic("tensor: AVX2 kernel on a non-amd64 host")
}

func packInt8AVX2(w []int8, m, k int) []int16 {
	panic("tensor: AVX2 kernel on a non-amd64 host")
}

func (p *PackedInt8) dotAVX2(sums *[4 * int8AVX2Cols]int32, i int, x []uint8, nc int) {
	panic("tensor: AVX2 kernel on a non-amd64 host")
}
