package intermittent

import (
	"testing"
	"testing/quick"

	"repro/internal/energy"
	"repro/internal/mcu"
	"repro/internal/tensor"
)

// TestEngineInvariantsUnderRandomWorkloads drives the engine with random
// traces and task mixes and checks the global invariants that must hold
// no matter what: time never rewinds, the buffer stays within bounds,
// and the energy ledger balances (nothing spent that was never stored).
func TestEngineInvariantsUnderRandomWorkloads(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed | 1)
		// Random trace: 200–1200 s of erratic power.
		dur := 200 + rng.Intn(1000)
		trace := &energy.Trace{Power: make([]float64, dur)}
		for i := range trace.Power {
			trace.Power[i] = rng.Float64() * 0.5
		}
		store := &energy.Storage{
			CapacityMJ:       1 + 9*rng.Float64(),
			BrownOutMJ:       0.05,
			ChargeEfficiency: 0.5 + 0.5*rng.Float64(),
			LeakMWPerS:       0.001 * rng.Float64(),
		}
		store.TurnOnMJ = store.BrownOutMJ + (store.CapacityMJ-store.BrownOutMJ)*0.2
		eng, err := New(mcu.MSP432(), store, trace)
		if err != nil {
			return false
		}

		initial := store.Level()
		prevNow := eng.Now()
		for op := 0; op < 30 && !eng.Ended(); op++ {
			switch rng.Intn(4) {
			case 0:
				eng.AdvanceTo(eng.Now() + float64(rng.Intn(50)))
			case 1:
				eng.RunAtomic(int64(rng.Intn(2_000_000)) + 1)
			case 2:
				eng.RunToCompletion(int64(rng.Intn(3_000_000)) + 1)
			default:
				eng.WaitForEnergy(rng.Float64()*store.CapacityMJ, eng.Now()+30)
			}
			if eng.Now() < prevNow {
				t.Logf("time rewound: %v → %v", prevNow, eng.Now())
				return false
			}
			prevNow = eng.Now()
			if store.Level() < 0 || store.Level() > store.CapacityMJ+1e-9 {
				t.Logf("buffer out of bounds: %v", store.Level())
				return false
			}
		}
		s := eng.Stats()
		// Ledger: all spending is covered by stored energy plus the
		// initial charge.
		spent := s.ComputeMJ + s.CheckpointMJ + store.Level()
		if spent > s.StoredMJ+initial+1e-6 {
			t.Logf("ledger violated: spent+level %v > stored %v + initial %v", spent, s.StoredMJ, initial)
			return false
		}
		// Stored never exceeds efficiency-scaled harvest.
		if s.StoredMJ > s.HarvestedMJ*store.ChargeEfficiency+1e-6 {
			t.Logf("stored %v exceeds efficiency-limited harvest", s.StoredMJ)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
