package tensor

import (
	"math"
	"testing"
)

func TestMatMulHandValues(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("C[%d] = %v, want %v (C=%v)", i, c.Data[i], w, c.Data)
		}
	}
}

func TestMatMulDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestMatMulIdentity(t *testing.T) {
	rng := NewRNG(1)
	a := New(4, 4)
	FillNormal(a, rng, 1)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(1, i, i)
	}
	c := MatMul(a, id)
	for i := range a.Data {
		if math.Abs(float64(c.Data[i]-a.Data[i])) > 1e-6 {
			t.Fatal("A×I must equal A")
		}
	}
}

func TestMatMulTransBMatchesExplicitTranspose(t *testing.T) {
	rng := NewRNG(2)
	a := New(3, 5)
	b := New(4, 5)
	FillNormal(a, rng, 1)
	FillNormal(b, rng, 1)
	got := MatMulTransB(a, b)
	want := MatMul(a, Transpose2D(b))
	if got.L2Distance(want) > 1e-4 {
		t.Fatalf("MatMulTransB diverges from explicit transpose by %g", got.L2Distance(want))
	}
}

func TestMatMulTransAMatchesExplicitTranspose(t *testing.T) {
	rng := NewRNG(3)
	a := New(5, 3)
	b := New(5, 4)
	FillNormal(a, rng, 1)
	FillNormal(b, rng, 1)
	got := MatMulTransA(a, b)
	want := MatMul(Transpose2D(a), b)
	if got.L2Distance(want) > 1e-4 {
		t.Fatalf("MatMulTransA diverges from explicit transpose by %g", got.L2Distance(want))
	}
}

func TestTranspose2DInvolution(t *testing.T) {
	rng := NewRNG(4)
	a := New(3, 7)
	FillNormal(a, rng, 1)
	b := Transpose2D(Transpose2D(a))
	if a.L2Distance(b) != 0 {
		t.Fatal("double transpose must be identity")
	}
}

func TestMatMulIntoReusesStorage(t *testing.T) {
	a := FromSlice([]float32{1, 0, 0, 1}, 2, 2)
	b := FromSlice([]float32{5, 6, 7, 8}, 2, 2)
	dst := New(2, 2)
	dst.Fill(99) // must be overwritten, not accumulated
	MatMulInto(dst, a, b)
	if dst.Data[0] != 5 || dst.Data[3] != 8 {
		t.Fatalf("MatMulInto = %v", dst.Data)
	}
}

// TestGemmTransBSerialRowBatched checks the property the batched
// inference executor (internal/plan.BatchExec) relies on for its dense
// stages: stacking many inputs as extra A rows in one GemmTransBSerial
// call yields, row for row, bit-identical output to m=1 calls per input
// — every output element is one self-contained ascending-p dot product.
func TestGemmTransBSerialRowBatched(t *testing.T) {
	rng := NewRNG(11)
	for _, dims := range [][3]int{
		{3, 7, 2}, {4, 16, 6}, {5, 9, 7}, {16, 75, 49}, {7, 31, 1},
	} {
		m, k, n := dims[0], dims[1], dims[2]
		a := New(m, k)
		b := New(n, k)
		FillNormal(a, rng, 1)
		FillNormal(b, rng, 1)
		wide := make([]float32, m*n)
		one := make([]float32, n)
		GemmTransBSerial(wide, a.Data, b.Data, m, k, n)
		for i := 0; i < m; i++ {
			GemmTransBSerial(one, a.Data[i*k:(i+1)*k], b.Data, 1, k, n)
			for j := range one {
				if wide[i*n+j] != one[j] {
					t.Fatalf("m=%d k=%d n=%d: row %d element %d = %x, want %x (must be bit-identical)",
						m, k, n, i, j, wide[i*n+j], one[j])
				}
			}
		}
	}
}

// TestGemmSerialMatchesMatMul cross-checks the raw-slice serial kernels
// against the tensor-level kernels that the conv/dense layers use, which
// is the bit-identity the compiled plans rely on.
func TestGemmSerialMatchesMatMul(t *testing.T) {
	rng := NewRNG(11)
	m, k, n := 7, 13, 9
	a, b := New(m, k), New(k, n)
	FillUniform(a, rng, -1, 1)
	FillUniform(b, rng, -1, 1)
	want := MatMul(a, b)
	got := make([]float32, m*n)
	GemmSerial(got, a.Data, b.Data, m, k, n)
	for i := range got {
		if got[i] != want.Data[i] {
			t.Fatalf("GemmSerial[%d] = %g, want %g", i, got[i], want.Data[i])
		}
	}

	bt := New(n, k)
	FillUniform(bt, rng, -1, 1)
	wantT := MatMulTransB(a, bt)
	gotT := make([]float32, m*n)
	GemmTransBSerial(gotT, a.Data, bt.Data, m, k, n)
	for i := range gotT {
		if gotT[i] != wantT.Data[i] {
			t.Fatalf("GemmTransBSerial[%d] = %g, want %g", i, gotT[i], wantT.Data[i])
		}
	}
}
