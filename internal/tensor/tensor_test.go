package tensor

import (
	"math"
	"testing"
)

func TestNewShapeAndLen(t *testing.T) {
	tt := New(2, 3, 4)
	if got := tt.Len(); got != 24 {
		t.Fatalf("Len = %d, want 24", got)
	}
	if tt.Rank() != 3 || tt.Dim(0) != 2 || tt.Dim(1) != 3 || tt.Dim(2) != 4 {
		t.Fatalf("bad shape %v", tt.Shape())
	}
	for _, v := range tt.Data {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestAtSetRowMajorLayout(t *testing.T) {
	tt := New(2, 3)
	tt.Set(5, 1, 2)
	if tt.Data[1*3+2] != 5 {
		t.Fatalf("Set wrote to wrong offset: %v", tt.Data)
	}
	if tt.At(1, 2) != 5 {
		t.Fatalf("At(1,2) = %v, want 5", tt.At(1, 2))
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestFromSliceAdoptsData(t *testing.T) {
	data := []float32{1, 2, 3, 4}
	tt := FromSlice(data, 2, 2)
	tt.Set(9, 0, 0)
	if data[0] != 9 {
		t.Fatal("FromSlice must share backing storage")
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestReshapeSharesDataAndInfers(t *testing.T) {
	tt := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	r := tt.Reshape(3, -1)
	if r.Dim(0) != 3 || r.Dim(1) != 2 {
		t.Fatalf("inferred shape %v, want [3 2]", r.Shape())
	}
	r.Set(42, 0, 0)
	if tt.At(0, 0) != 42 {
		t.Fatal("Reshape must be a view")
	}
}

func TestReshapeBadVolumePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 3).Reshape(4, 2)
}

func TestCloneIsDeep(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := a.Clone()
	b.Data[0] = 7
	if a.Data[0] != 1 {
		t.Fatal("Clone must copy data")
	}
}

func TestArithmetic(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{10, 20, 30}, 3)
	a.AddInPlace(b)
	if a.Data[2] != 33 {
		t.Fatalf("AddInPlace: %v", a.Data)
	}
	a.ScaleInPlace(0.5)
	if a.Data[0] != 5.5 {
		t.Fatalf("ScaleInPlace: %v", a.Data)
	}
}

func TestSumAbsSumMaxAbs(t *testing.T) {
	a := FromSlice([]float32{-1, 2, -3}, 3)
	if a.Sum() != -2 {
		t.Fatalf("Sum = %v", a.Sum())
	}
	if a.AbsSum() != 6 {
		t.Fatalf("AbsSum = %v", a.AbsSum())
	}
	if a.MaxAbs() != 3 {
		t.Fatalf("MaxAbs = %v", a.MaxAbs())
	}
}

func TestArgMax(t *testing.T) {
	if got := FromSlice([]float32{1, 5, 3}, 3).ArgMax(); got != 1 {
		t.Fatalf("ArgMax = %d", got)
	}
	if got := (&Tensor{}).ArgMax(); got != -1 {
		t.Fatalf("empty ArgMax = %d, want -1", got)
	}
}

func TestL2Distance(t *testing.T) {
	a := FromSlice([]float32{0, 0}, 2)
	b := FromSlice([]float32{3, 4}, 2)
	if d := a.L2Distance(b); math.Abs(d-5) > 1e-6 {
		t.Fatalf("L2Distance = %v, want 5", d)
	}
}

func TestSameShape(t *testing.T) {
	if !New(2, 3).SameShape(New(2, 3)) {
		t.Fatal("identical shapes should match")
	}
	if New(2, 3).SameShape(New(3, 2)) {
		t.Fatal("different shapes should not match")
	}
	if New(2, 3).SameShape(New(2, 3, 1)) {
		t.Fatal("different ranks should not match")
	}
}
