package tensor

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// setAVX2 switches the kernel selection for the rest of the test.
func setAVX2(t testing.TB, on bool) {
	prev := useAVX2
	useAVX2 = on
	t.Cleanup(func() { useAVX2 = prev })
}

// gemmShapes are the six LeNet-EE conv GEMMs (m×k×n = output channels
// × filter taps × output positions) plus the kernels' tails: m mod 4,
// n mod 16, n < 8, k = 0 and k < 16, and empty products.
var gemmShapes = [][3]int{
	{6, 75, 784}, {8, 54, 196}, {36, 150, 100}, {36, 324, 25}, {32, 324, 25}, {64, 288, 25},
	{1, 17, 16}, {2, 16, 17}, {3, 31, 8}, {5, 33, 9}, {7, 47, 31}, {4, 15, 7},
	{9, 3, 1}, {4, 0, 5}, {3, 0, 19}, {0, 8, 8}, {5, 12, 0}, {13, 80, 80},
}

// specialF32 draws an operand from the mix the fuzz target feeds the
// float kernels: exact ±0, subnormals, large magnitudes and ordinary
// values; with nonFinite, also ±Inf and NaN.
func specialF32(r *rand.Rand, nonFinite bool) float32 {
	kinds := 6
	if nonFinite {
		kinds = 8
	}
	switch r.Intn(kinds) {
	case 0:
		return 0
	case 1:
		return float32(math.Copysign(0, -1))
	case 2:
		return math.Float32frombits(uint32(r.Intn(1<<23)) | uint32(r.Intn(2))<<31)
	case 3:
		return float32(r.NormFloat64() * 1e37)
	case 6:
		return float32(math.Inf(1 - 2*r.Intn(2)))
	case 7:
		return float32(math.NaN())
	}
	return float32(r.NormFloat64())
}

// gemmOperands builds A (m×k) and B (k×n) for the float differential
// checks. Some A columns are zeroed whole, as pruning an input channel
// does, and some A entries alone, so four-row blocks mix zero and
// nonzero lanes.
func gemmOperands(r *rand.Rand, m, k, n int, nonFinite bool) (a, b []float32) {
	a = make([]float32, m*k)
	b = make([]float32, k*n)
	for i := range a {
		a[i] = specialF32(r, nonFinite)
	}
	for i := range b {
		b[i] = specialF32(r, nonFinite)
	}
	for p := 0; p < k; p++ {
		if r.Intn(4) == 0 {
			for i := 0; i < m; i++ {
				a[i*k+p] = 0
			}
		}
	}
	return a, b
}

// checkGemmF32 runs GemmSerial on the AVX2 kernel and compares it with
// matMulRows: bit for bit, except that a NaN need only be a NaN where
// the reference has one.
func checkGemmF32(t *testing.T, m, k, n int, a, b []float32) {
	t.Helper()
	want := make([]float32, m*n)
	matMulRows(want, a, b, 0, m, k, n)
	got := make([]float32, m*n)
	for i := range got {
		got[i] = 42 // the kernel must overwrite every element
	}
	setAVX2(t, true)
	GemmSerial(got, a, b, m, k, n)
	for i := range want {
		g, w := got[i], want[i]
		if math.Float32bits(g) == math.Float32bits(w) || (g != g && w != w) {
			continue
		}
		t.Fatalf("%dx%dx%d: AVX2 [%d][%d] = %g (%#08x), pure Go %g (%#08x)", m, k, n, i/n, i%n, g, math.Float32bits(g), w, math.Float32bits(w))
	}
}

// int8Operands draws int8 weights, uint8 activations (transposed,
// n×k) and int32 biases, with the extreme codes overrepresented.
func int8Operands(r *rand.Rand, m, k, n int) (w []int8, bt []uint8, bias []int32) {
	w = make([]int8, m*k)
	for i := range w {
		switch r.Intn(5) {
		case 0:
			w[i] = -128
		case 1:
			w[i] = 127
		default:
			w[i] = int8(r.Intn(256) - 128)
		}
	}
	bt = make([]uint8, n*k)
	for i := range bt {
		switch r.Intn(5) {
		case 0:
			bt[i] = 255
		case 1:
			bt[i] = 0
		default:
			bt[i] = uint8(r.Intn(256))
		}
	}
	bias = make([]int32, m)
	for i := range bias {
		bias[i] = int32(r.Intn(1<<22) - 1<<21)
	}
	return w, bt, bias
}

// checkGemmInt8 runs both heads of the packed GEMM, on the layout the
// kernel selection packs, against a plain int32 reference.
func checkGemmInt8(t *testing.T, avx2 bool, m, k, n int, w []int8, bt []uint8, bias []int32, mul int32, shift uint) {
	t.Helper()
	setAVX2(t, avx2)
	pk := PackInt8Panels(w, m, k)
	if avx2 && k >= 16 && pk.w16 == nil {
		t.Fatalf("%dx%d: AVX2 host packed the dual-lane layout", m, k)
	}
	const scale = 0.0078125
	gotQ := make([]uint8, m*n)
	gotF := make([]float32, m*n)
	GemmInt8PackedReq(gotQ, pk, bt, bias, n, mul, shift)
	GemmInt8PackedDeq(gotF, pk, bt, bias, n, scale)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			acc := bias[i]
			for p := 0; p < k; p++ {
				acc += int32(w[i*k+p]) * int32(bt[j*k+p])
			}
			if q := refRequant(acc, mul, shift); gotQ[i*n+j] != q {
				t.Fatalf("avx2=%v %dx%dx%d: requant [%d][%d] = %d, want %d", avx2, m, k, n, i, j, gotQ[i*n+j], q)
			}
			if f := float32(acc) * scale; gotF[i*n+j] != f {
				t.Fatalf("avx2=%v %dx%dx%d: dequant [%d][%d] = %g, want %g", avx2, m, k, n, i, j, gotF[i*n+j], f)
			}
		}
	}
}

// TestGemmKernelsShapes runs the differential checks on the LeNet-EE
// shapes and the tails: the AVX2 float GEMM against matMulRows, and
// both int8 layouts against the int32 reference.
func TestGemmKernelsShapes(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for _, s := range gemmShapes {
		m, k, n := s[0], s[1], s[2]
		w, bt, bias := int8Operands(r, m, k, n)
		checkGemmInt8(t, false, m, k, n, w, bt, bias, 1<<30, 38)
		if !cpuHasAVX2() {
			continue
		}
		for _, nonFinite := range []bool{false, true} {
			a, b := gemmOperands(r, m, k, n, nonFinite)
			checkGemmF32(t, m, k, n, a, b)
		}
		checkGemmInt8(t, true, m, k, n, w, bt, bias, 1<<30, 38)
	}
}

// FuzzGemmKernels is the differential fuzz target over both kernel
// paths: for m, k, n in [0, 80] and a seed, the AVX2 GemmSerial equals
// the pure-Go kernel bit for bit on finite operands and has NaNs
// exactly where it does on non-finite ones, and the AVX2 int8 GEMM's
// requantizing and dequantizing heads equal a plain int32 reference.
func FuzzGemmKernels(f *testing.F) {
	f.Add(uint8(6), uint8(75), uint8(80), uint64(1), false)
	f.Add(uint8(5), uint8(17), uint8(7), uint64(2), true)
	f.Add(uint8(4), uint8(0), uint8(16), uint64(3), false)
	f.Add(uint8(36), uint8(80), uint8(25), uint64(4), true)
	f.Fuzz(func(t *testing.T, mb, kb, nb uint8, seed uint64, nonFinite bool) {
		if !cpuHasAVX2() {
			t.Skip("CPU has no AVX2: only the pure-Go kernels run here")
		}
		m, k, n := int(mb)%81, int(kb)%81, int(nb)%81
		r := rand.New(rand.NewSource(int64(seed)))
		a, b := gemmOperands(r, m, k, n, nonFinite)
		checkGemmF32(t, m, k, n, a, b)
		w, bt, bias := int8Operands(r, m, k, n)
		mul := int32(r.Intn(1<<31-1<<30) + 1<<30)
		shift := uint(31 + r.Intn(16))
		checkGemmInt8(t, true, m, k, n, w, bt, bias, mul, shift)
	})
}

// TestAssemblyHasNoFMA fails on any fused multiply-add in the package's
// assembly. The float kernels must round each product before adding it,
// as the pure-Go kernels do: the compiled float plan's bit-identity to
// the layer walk and the AVX2 kernel's to the pure-Go one both rest on
// that separate multiply and add.
func TestAssemblyHasNoFMA(t *testing.T) {
	files, err := filepath.Glob("*_amd64.s")
	if err != nil || len(files) == 0 {
		t.Fatalf("no *_amd64.s files found (err %v)", err)
	}
	fma := regexp.MustCompile(`(?i)\bVF(N?MADD|N?MSUB)`)
	for _, name := range files {
		fh, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(fh)
		for line := 1; sc.Scan(); line++ {
			code, _, _ := strings.Cut(sc.Text(), "//")
			if fma.MatchString(code) {
				t.Errorf("%s:%d: fused multiply-add: %s", name, line, strings.TrimSpace(code))
			}
		}
		fh.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkGemmKernels times both kernel paths on the six LeNet-EE conv
// GEMMs (BenchmarkGemmKernels/<f32|int8>/<go|avx2>/<m>x<k>x<n>) and
// reports MACs/ns; the int8 runs include the requantization epilogue.
func BenchmarkGemmKernels(b *testing.B) {
	r := rand.New(rand.NewSource(29))
	for _, avx2 := range []bool{false, true} {
		if avx2 && !cpuHasAVX2() {
			continue
		}
		path := map[bool]string{false: "go", true: "avx2"}[avx2]
		for _, s := range gemmShapes[:6] {
			m, k, n := s[0], s[1], s[2]
			macs := float64(m * k * n)
			name := fmt.Sprintf("%s/%dx%dx%d", path, m, k, n)
			a, bm := New(m, k), New(k, n)
			FillUniform(a, NewRNG(uint64(k)), -1, 1)
			FillUniform(bm, NewRNG(uint64(n)), 0, 1)
			c := make([]float32, m*n)
			b.Run("f32/"+name, func(b *testing.B) {
				setAVX2(b, avx2)
				for i := 0; i < b.N; i++ {
					GemmSerial(c, a.Data, bm.Data, m, k, n)
				}
				b.ReportMetric(macs*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "MACs/ns")
			})
			w, bt, bias := int8Operands(r, m, k, n)
			dst := make([]uint8, m*n)
			b.Run("int8/"+name, func(b *testing.B) {
				setAVX2(b, avx2)
				pk := PackInt8Panels(w, m, k)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					GemmInt8PackedReq(dst, pk, bt, bias, n, 1<<30, 38)
				}
				b.ReportMetric(macs*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "MACs/ns")
			})
		}
	}
}
