package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Aggregate summarizes a metric across repeated runs (different seeds),
// with mean, standard deviation, and min/median/max — what EXPERIMENTS.md
// reports for seed-sensitive quantities.
type Aggregate struct {
	Name   string
	Values []float64
}

// NewAggregate collects named values.
func NewAggregate(name string, values ...float64) *Aggregate {
	return &Aggregate{Name: name, Values: append([]float64(nil), values...)}
}

// Add appends a value.
func (a *Aggregate) Add(v float64) { a.Values = append(a.Values, v) }

// N returns the sample count.
func (a *Aggregate) N() int { return len(a.Values) }

// Mean returns the sample mean (0 for empty).
func (a *Aggregate) Mean() float64 {
	if len(a.Values) == 0 {
		return 0
	}
	var s float64
	for _, v := range a.Values {
		s += v
	}
	return s / float64(len(a.Values))
}

// Std returns the sample standard deviation (n−1 denominator; 0 for
// fewer than two samples).
func (a *Aggregate) Std() float64 {
	if len(a.Values) < 2 {
		return 0
	}
	m := a.Mean()
	var sq float64
	for _, v := range a.Values {
		d := v - m
		sq += d * d
	}
	return math.Sqrt(sq / float64(len(a.Values)-1))
}

// Min returns the smallest value (0 for empty).
func (a *Aggregate) Min() float64 {
	if len(a.Values) == 0 {
		return 0
	}
	m := a.Values[0]
	for _, v := range a.Values[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest value (0 for empty).
func (a *Aggregate) Max() float64 {
	if len(a.Values) == 0 {
		return 0
	}
	m := a.Values[0]
	for _, v := range a.Values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Median returns the middle value (0 for empty).
func (a *Aggregate) Median() float64 {
	if len(a.Values) == 0 {
		return 0
	}
	s := append([]float64(nil), a.Values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// String renders "name: mean ± std [min, max] (n=N)".
func (a *Aggregate) String() string {
	return fmt.Sprintf("%s: %.4f ± %.4f [%.4f, %.4f] (n=%d)",
		a.Name, a.Mean(), a.Std(), a.Min(), a.Max(), a.N())
}
