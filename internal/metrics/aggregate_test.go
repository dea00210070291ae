package metrics

import (
	"math"
	"testing"
)

func TestAggregateMoments(t *testing.T) {
	a := NewAggregate("x", 1, 2, 3, 4, 5)
	if a.Mean() != 3 {
		t.Fatalf("mean %v", a.Mean())
	}
	if math.Abs(a.Std()-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("std %v", a.Std())
	}
	if a.Min() != 1 || a.Max() != 5 || a.Median() != 3 {
		t.Fatal("order stats wrong")
	}
	if a.N() != 5 {
		t.Fatal("count wrong")
	}
}

func TestAggregateEvenMedian(t *testing.T) {
	a := NewAggregate("x", 1, 2, 3, 4)
	if a.Median() != 2.5 {
		t.Fatalf("median %v", a.Median())
	}
}

func TestAggregateEmptyAndSingle(t *testing.T) {
	e := NewAggregate("e")
	if e.Mean() != 0 || e.Std() != 0 || e.Median() != 0 {
		t.Fatal("empty aggregate should be zeros")
	}
	s := NewAggregate("s", 7)
	if s.Std() != 0 || s.Mean() != 7 {
		t.Fatal("single-sample stats wrong")
	}
}
