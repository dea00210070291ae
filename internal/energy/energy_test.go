package energy

import (
	"bytes"
	"encoding/csv"
	"math"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
)

func TestSyntheticSolarTraceShape(t *testing.T) {
	tr := SyntheticSolarTrace(SolarConfig{Seconds: 3600, PeakPower: 1, Seed: 1})
	if tr.Duration() != 3600 {
		t.Fatalf("duration %d", tr.Duration())
	}
	for i, p := range tr.Power {
		if p < 0 || p > 1 {
			t.Fatalf("power[%d] = %v outside [0, peak]", i, p)
		}
	}
	// Midday should out-power dawn on average.
	dawn := tr.Slice(0, 300).MeanPower()
	noon := tr.Slice(1650, 1950).MeanPower()
	if noon <= dawn {
		t.Fatalf("no diurnal arc: dawn %v, noon %v", dawn, noon)
	}
}

func TestSolarTraceDeterminism(t *testing.T) {
	a := SyntheticSolarTrace(SolarConfig{Seconds: 100, Seed: 5})
	b := SyntheticSolarTrace(SolarConfig{Seconds: 100, Seed: 5})
	for i := range a.Power {
		if a.Power[i] != b.Power[i] {
			t.Fatal("same seed must give identical traces")
		}
	}
	c := SyntheticSolarTrace(SolarConfig{Seconds: 100, Seed: 6})
	same := true
	for i := range a.Power {
		if a.Power[i] != c.Power[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds gave identical traces")
	}
}

func TestKineticTraceBursty(t *testing.T) {
	tr := SyntheticKineticTrace(KineticConfig{Seconds: 10000, Seed: 2})
	zero, nonzero := 0, 0
	for _, p := range tr.Power {
		if p == 0 {
			zero++
		} else {
			nonzero++
		}
	}
	if zero == 0 || nonzero == 0 {
		t.Fatalf("kinetic trace not bursty: %d zero, %d active", zero, nonzero)
	}
}

// TestKineticZeroFrac checks the idle fraction of a shorter kinetic
// trace than TestKineticTraceBursty's: some seconds, never all of them.
func TestKineticZeroFrac(t *testing.T) {
	tr := SyntheticKineticTrace(KineticConfig{Seconds: 5000, Seed: 2})
	zeros := 0
	for _, p := range tr.Power {
		if p == 0 {
			zeros++
		}
	}
	if frac := float64(zeros) / float64(tr.Duration()); frac <= 0 || frac >= 1 {
		t.Fatalf("kinetic idle fraction %v implausible", frac)
	}
}

func TestConstantTrace(t *testing.T) {
	tr := ConstantTrace(10, 0.5)
	if tr.TotalEnergy() != 5 {
		t.Fatalf("total = %v", tr.TotalEnergy())
	}
	if tr.MeanPower() != 0.5 {
		t.Fatalf("mean = %v", tr.MeanPower())
	}
}

func TestTraceAtClamps(t *testing.T) {
	tr := ConstantTrace(5, 1)
	if tr.At(-1) != 0 || tr.At(5) != 0 {
		t.Fatal("out-of-range At must be 0")
	}
	if tr.At(2) != 1 {
		t.Fatal("in-range At wrong")
	}
}

func TestStorageValidate(t *testing.T) {
	if err := DefaultStorage().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultStorage()
	bad.TurnOnMJ = bad.CapacityMJ + 1
	if bad.Validate() == nil {
		t.Fatal("turn-on above capacity accepted")
	}
	bad = DefaultStorage()
	bad.ChargeEfficiency = 1.5
	if bad.Validate() == nil {
		t.Fatal("efficiency > 1 accepted")
	}
	bad = DefaultStorage()
	bad.BrownOutMJ = bad.TurnOnMJ + 1
	if bad.Validate() == nil {
		t.Fatal("brown-out above turn-on accepted")
	}
}

func TestStorageHarvestAndSpend(t *testing.T) {
	s := &Storage{CapacityMJ: 10, TurnOnMJ: 1, BrownOutMJ: 0.1, ChargeEfficiency: 0.5}
	s.SetLevel(0)
	if s.On() {
		t.Fatal("empty storage must be off")
	}
	s.Harvest(4, 1) // stores 2 mJ
	if !s.On() {
		t.Fatal("storage past turn-on must power the device")
	}
	if math.Abs(s.Level()-2) > 1e-9 {
		t.Fatalf("level = %v, want 2", s.Level())
	}
	if math.Abs(s.Available()-1.9) > 1e-9 {
		t.Fatalf("available = %v, want 1.9", s.Available())
	}
	if !s.Spend(1) {
		t.Fatal("affordable spend failed")
	}
	if math.Abs(s.Level()-1) > 1e-9 {
		t.Fatalf("level after spend = %v", s.Level())
	}
}

func TestStorageOverspendBrownsOut(t *testing.T) {
	s := &Storage{CapacityMJ: 10, TurnOnMJ: 1, BrownOutMJ: 0.1, ChargeEfficiency: 1}
	s.SetLevel(2)
	if s.Spend(5) {
		t.Fatal("overspend must fail")
	}
	if s.On() {
		t.Fatal("overspend must brown out")
	}
	if s.Level() != 0.1 {
		t.Fatalf("level after brown-out = %v, want brown-out floor", s.Level())
	}
}

func TestStorageHysteresis(t *testing.T) {
	s := &Storage{CapacityMJ: 10, TurnOnMJ: 2, BrownOutMJ: 0.5, ChargeEfficiency: 1}
	s.SetLevel(3)
	s.Spend(2.4) // 0.6 left: above brown-out, stays on
	if !s.On() {
		t.Fatal("should stay on above brown-out")
	}
	s.Spend(0.09) // just above floor
	if s.Available() <= 0 {
		t.Fatal("still marginally available")
	}
	s.Spend(s.Available()) // drains to floor exactly → off
	if s.On() {
		t.Fatal("draining to the floor must turn off")
	}
	// Needs to pass turn-on again, not just brown-out.
	s.Harvest(1, 1) // level 1.5 < turn-on 2
	if s.On() {
		t.Fatal("below turn-on must stay off (hysteresis)")
	}
	s.Harvest(1, 1) // 2.5 ≥ 2
	if !s.On() {
		t.Fatal("past turn-on must wake")
	}
}

func TestStorageCapacityClamp(t *testing.T) {
	s := &Storage{CapacityMJ: 5, TurnOnMJ: 1, BrownOutMJ: 0, ChargeEfficiency: 1}
	s.SetLevel(0)
	s.Harvest(100, 1)
	if s.Level() != 5 {
		t.Fatalf("level %v exceeds capacity", s.Level())
	}
}

func TestStorageLeakage(t *testing.T) {
	s := &Storage{CapacityMJ: 5, TurnOnMJ: 1, BrownOutMJ: 0, ChargeEfficiency: 1, LeakMWPerS: 0.1}
	s.SetLevel(1)
	s.Harvest(0, 5) // 0.5 mJ leaks
	if math.Abs(s.Level()-0.5) > 1e-9 {
		t.Fatalf("level after leak = %v", s.Level())
	}
}

// Property: energy level never negative and never above capacity under
// arbitrary harvest/spend sequences.
func TestStorageBoundsProperty(t *testing.T) {
	f := func(ops []float32) bool {
		s := DefaultStorage()
		s.SetLevel(0)
		for _, op := range ops {
			v := float64(op)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			if v >= 0 {
				s.Harvest(math.Mod(v, 100), 1)
			} else {
				s.Spend(math.Mod(-v, 100))
			}
			if s.Level() < 0 || s.Level() > s.CapacityMJ {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUniformScheduleProperties(t *testing.T) {
	s := UniformSchedule(500, 21600, 10, 3)
	if s.Len() != 500 {
		t.Fatalf("len %d", s.Len())
	}
	if !sort.SliceIsSorted(s.Events, func(a, b int) bool { return s.Events[a].T < s.Events[b].T }) {
		t.Fatal("events must be time-ordered")
	}
	counts := make(map[int]int)
	for _, e := range s.Events {
		if e.T < 0 || e.T >= 21600 {
			t.Fatalf("event time %d out of range", e.T)
		}
		counts[e.Class]++
	}
	for c := 0; c < 10; c++ {
		if counts[c] != 50 {
			t.Fatalf("class %d has %d events, want 50", c, counts[c])
		}
	}
}

func TestBurstySchedule(t *testing.T) {
	s := BurstySchedule(200, 10000, 10, 5, 4)
	if s.Len() != 200 {
		t.Fatalf("len %d", s.Len())
	}
	if !sort.SliceIsSorted(s.Events, func(a, b int) bool { return s.Events[a].T < s.Events[b].T }) {
		t.Fatal("bursty events must be time-ordered")
	}
	// Burstiness: count adjacent gaps ≤ 1 s.
	tight := 0
	for i := 1; i < s.Len(); i++ {
		if s.Events[i].T-s.Events[i-1].T <= 1 {
			tight++
		}
	}
	if tight < 20 {
		t.Fatalf("only %d tight gaps; schedule not bursty", tight)
	}
}

func TestAttachSamples(t *testing.T) {
	s := UniformSchedule(20, 100, 2, 5)
	byClass := [][]int{{0, 1, 2}, {3, 4}}
	if err := s.AttachSamples(byClass, 1); err != nil {
		t.Fatal(err)
	}
	for _, e := range s.Events {
		if e.SampleIndex < 0 {
			t.Fatal("sample not attached")
		}
		want := byClass[e.Class]
		found := false
		for _, idx := range want {
			if idx == e.SampleIndex {
				found = true
			}
		}
		if !found {
			t.Fatalf("event class %d got sample %d from the wrong class", e.Class, e.SampleIndex)
		}
	}
}

func TestAttachSamplesMissingClass(t *testing.T) {
	s := UniformSchedule(5, 100, 3, 6)
	if err := s.AttachSamples([][]int{{0}}, 1); err == nil {
		t.Fatal("missing class accepted")
	}
}

func TestTraceCSVRoundTrip(t *testing.T) {
	tr := SyntheticSolarTrace(SolarConfig{Seconds: 50, Seed: 7})
	var buf bytes.Buffer
	if err := WriteTraceCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTraceCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Duration() != 50 {
		t.Fatalf("round-trip duration %d", back.Duration())
	}
	for i := range tr.Power {
		if math.Abs(tr.Power[i]-back.Power[i]) > 1e-12 {
			t.Fatal("round-trip power mismatch")
		}
	}
}

func TestReadTraceCSVRejectsNegative(t *testing.T) {
	if _, err := ReadTraceCSV(bytes.NewBufferString("t,power\n0,-1\n")); err == nil {
		t.Fatal("negative power accepted")
	}
}

// TestScheduleCSVRoundTrip: WriteScheduleCSV, which cmd/tracegen
// uses, writes a header and then one "t,class" row per event, in order,
// that a CSV reader turns back into the schedule.
func TestScheduleCSVRoundTrip(t *testing.T) {
	s := UniformSchedule(30, 1000, 10, 8)
	var buf bytes.Buffer
	if err := WriteScheduleCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 31 || rows[0][0] != "t_seconds" || rows[0][1] != "class" {
		t.Fatalf("want a t_seconds,class header and 30 rows, got %d rows starting %v", len(rows), rows[0])
	}
	for i, e := range s.Events {
		want := []string{strconv.Itoa(e.T), strconv.Itoa(e.Class)}
		if got := rows[i+1]; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("row %d = %v, want %v", i+1, got, want)
		}
	}
}
