package energy

import (
	"strings"
	"testing"
)

func TestTraceStatsConstant(t *testing.T) {
	s := ConstantTrace(100, 0.5).Stats()
	if s.MeanMW != 0.5 || s.PeakMW != 0.5 || s.P50MW != 0.5 || s.P95MW != 0.5 {
		t.Fatalf("constant-trace stats wrong: %+v", s)
	}
	if s.ZeroFrac != 0 {
		t.Fatal("no zeros expected")
	}
	if s.TotalMJ != 50 {
		t.Fatalf("total %v", s.TotalMJ)
	}
}

func TestTraceStatsOrdering(t *testing.T) {
	tr := SyntheticSolarTrace(SolarConfig{Seconds: 2000, Seed: 1})
	s := tr.Stats()
	if !(s.P50MW <= s.P95MW && s.P95MW <= s.PeakMW) {
		t.Fatalf("percentile ordering violated: %+v", s)
	}
	if !strings.Contains(s.String(), "mean=") {
		t.Fatal("String misses fields")
	}
}

func TestKineticZeroFrac(t *testing.T) {
	tr := SyntheticKineticTrace(KineticConfig{Seconds: 5000, Seed: 2})
	s := tr.Stats()
	if s.ZeroFrac <= 0 || s.ZeroFrac >= 1 {
		t.Fatalf("kinetic idle fraction %v implausible", s.ZeroFrac)
	}
}
