package energy

import (
	"fmt"
	"math"
	"sort"
)

// TraceStats summarizes a harvesting trace.
type TraceStats struct {
	Seconds  int
	MeanMW   float64
	PeakMW   float64
	P50MW    float64
	P95MW    float64
	TotalMJ  float64
	ZeroFrac float64 // fraction of seconds with no harvest
}

// Stats computes summary statistics of the trace.
func (t *Trace) Stats() TraceStats {
	s := TraceStats{Seconds: t.Duration(), TotalMJ: t.TotalEnergy(), MeanMW: t.MeanPower()}
	if t.Duration() == 0 {
		return s
	}
	sorted := append([]float64(nil), t.Power...)
	sort.Float64s(sorted)
	s.PeakMW = sorted[len(sorted)-1]
	s.P50MW = percentile(sorted, 0.50)
	s.P95MW = percentile(sorted, 0.95)
	zeros := 0
	for _, p := range t.Power {
		if p == 0 {
			zeros++
		}
	}
	s.ZeroFrac = float64(zeros) / float64(t.Duration())
	return s
}

func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := q * float64(len(sorted)-1)
	lo := int(math.Floor(idx))
	hi := int(math.Ceil(idx))
	if lo == hi {
		return sorted[lo]
	}
	frac := idx - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// String renders the stats compactly.
func (s TraceStats) String() string {
	return fmt.Sprintf("%ds mean=%.1fµW p50=%.1fµW p95=%.1fµW peak=%.1fµW total=%.1fmJ idle=%.0f%%",
		s.Seconds, 1000*s.MeanMW, 1000*s.P50MW, 1000*s.P95MW, 1000*s.PeakMW, s.TotalMJ, 100*s.ZeroFrac)
}
