package intermittent

import (
	"math"
	"testing"

	"repro/internal/energy"
	"repro/internal/mcu"
	"repro/internal/tensor"
)

// refEngine replicates the pre-fusion stepping engine exactly: the
// second-by-second harvest loop and the 1-second wait loop, span by
// span. The fused kernels (Storage.HarvestPairsUntil / DrainZero) claim
// bit-identity with this decomposition — including the rounded clock
// chain (t+1.0 is not exact for clocks carrying a full 53-bit fraction)
// — and this file is the differential gate for that claim.
type refEngine struct {
	store              *energy.Storage
	trace              *energy.Trace
	now                float64
	harvested, storedE float64
}

func (r *refEngine) harvestStep(dt float64) {
	if dt <= 0 {
		return
	}
	t := r.now
	end := r.now + dt
	for t < end {
		sec := int(t)
		next := float64(sec + 1)
		if next > end {
			next = end
		}
		span := next - t
		mj := r.trace.At(sec) * span
		r.harvested += mj
		r.storedE += r.store.Harvest(mj, span)
		t = next
	}
	r.now = end
}

func (r *refEngine) waitForEnergy(mj, deadline float64) bool {
	limit := float64(r.trace.Duration())
	if deadline > 0 && deadline < limit {
		limit = deadline
	}
	for r.now < limit {
		if r.store.On() && r.store.Available() >= mj {
			return true
		}
		step := 1.0
		if r.now+step > limit {
			step = limit - r.now
		}
		if step <= 0 {
			break
		}
		r.harvestStep(step)
	}
	return r.store.On() && r.store.Available() >= mj
}

// TestWaitForEnergyBitIdenticalToStepping fuzzes WaitForEnergy and
// AdvanceTo against the reference stepper. The first trials use weak
// random traces (including exact-zero stretches that trigger the drain
// fast path), full-precision fractional starting clocks, and random
// targets/deadlines. The capacitor-full trials after them charge small
// capacitors hard enough that HarvestSeconds skips through seconds at
// capacity, with stretches at the leak break-even where the skip test
// is decided by rounding. Every observable — result, clock, buffer
// level, on-state, energy ledgers — must match bit for bit.
func TestWaitForEnergyBitIdenticalToStepping(t *testing.T) {
	rng := tensor.NewRNG(0xbeef)
	var eng *Engine
	var ref *refEngine
	atCapacity := 0
	same := func(trial, step int) {
		t.Helper()
		if eng.Now() != ref.now {
			t.Fatalf("trial %d step %d: clock %x vs %x", trial, step, eng.Now(), ref.now)
		}
		if eng.Store.Level() != ref.store.Level() || eng.Store.On() != ref.store.On() {
			t.Fatalf("trial %d step %d: level %x/%v vs %x/%v",
				trial, step, eng.Store.Level(), eng.Store.On(), ref.store.Level(), ref.store.On())
		}
		st := eng.Stats()
		if st.HarvestedMJ != ref.harvested || st.StoredMJ != ref.storedE {
			t.Fatalf("trial %d step %d: ledgers (%x, %x) vs (%x, %x)",
				trial, step, st.HarvestedMJ, st.StoredMJ, ref.harvested, ref.storedE)
		}
		if eng.Store.Level() == eng.Store.CapacityMJ {
			atCapacity++
		}
	}
	// start builds the engine and the reference on one trace and drives
	// both to the clock t0.
	start := func(power []float64, mkStore func() *energy.Storage, t0 float64) {
		t.Helper()
		trace := &energy.Trace{Power: power}
		var err error
		eng, err = New(mcu.MSP432(), mkStore(), trace)
		if err != nil {
			t.Fatal(err)
		}
		refStore := mkStore()
		refStore.SetLevel(refStore.TurnOnMJ)
		ref = &refEngine{store: refStore, trace: trace}
		eng.AdvanceTo(t0)
		ref.harvestStep(t0 - ref.now)
	}
	// advance moves both to the clock next, spending a little first as
	// a task would.
	advance := func(spend, next float64) {
		eng.Store.Spend(spend)
		ref.store.Spend(spend)
		eng.AdvanceTo(next)
		ref.harvestStep(next - ref.now)
		if math.IsNaN(eng.Now()) {
			t.Fatal("clock went NaN")
		}
	}
	wait := func(trial, step int, target, deadline float64) {
		t.Helper()
		got := eng.WaitForEnergy(target, deadline)
		want := ref.waitForEnergy(target, deadline)
		if got != want {
			t.Fatalf("trial %d step %d: wait result %v vs %v", trial, step, got, want)
		}
		same(trial, step)
	}

	for trial := 0; trial < 300; trial++ {
		// Random trace with zero runs and tiny powers.
		dur := 50 + int(rng.Float64()*200)
		power := make([]float64, dur)
		for i := range power {
			switch {
			case rng.Float64() < 0.4:
				power[i] = 0 // exact zero: drain fast path
			default:
				power[i] = rng.Float64() * 0.05
			}
		}

		// Half the trials use the TurnOnMJ == BrownOutMJ edge, where a
		// browned-out buffer sits exactly at the turn-on threshold and
		// even a zero-power Harvest step re-fires the turn-on transition
		// — the stepper behavior DrainZero must reproduce.
		turnOn, brownOut := 0.5, 0.05
		if trial%2 == 1 {
			turnOn, brownOut = 0.05, 0.05
		}
		mkStore := func() *energy.Storage {
			return &energy.Storage{
				CapacityMJ: 4, TurnOnMJ: turnOn, BrownOutMJ: brownOut,
				ChargeEfficiency: 0.9, LeakMWPerS: 0.0002,
			}
		}
		// Drive both to the same full-precision fractional clock, then
		// issue the same waits.
		start(power, mkStore, rng.Float64()*3) // fractional, full 53-bit mantissa

		for w := 0; w < 4; w++ {
			target := 0.2 + rng.Float64()*3
			deadline := eng.Now() + rng.Float64()*float64(dur)
			wait(trial, w, target, deadline)
			// Advance both across a fractional gap (spending a little as
			// a task would) so later waits start from a messy clock.
			spend := rng.Float64() * 0.2
			advance(spend, eng.Now()+rng.Float64()*5)
		}
	}

	// Capacitor-full trials: 0.5–3.5 mJ buffers, powers up to 0.9 mW in
	// runs, some at the leak break-even (p·0.9 ≈ 0.0002 mW), and AdvanceTo
	// gaps of up to 300 s, whole and fractional.
	const eff, leak = 0.9, 0.0002
	for trial := 300; trial < 500; trial++ {
		capacity := 0.5 + rng.Float64()*3
		ulp := math.Nextafter(capacity, 4) - capacity
		dur := 300 + int(rng.Float64()*900)
		power := make([]float64, dur)
		for i := 0; i < dur; {
			run := 1 + int(rng.Float64()*60)
			kind := rng.Float64()
			for ; run > 0 && i < dur; run, i = run-1, i+1 {
				switch {
				case kind < 0.2:
					power[i] = 0
				case kind < 0.5:
					// A net charge within 3 ulps of the capacity: whether
					// a full buffer stays full is decided by rounding.
					power[i] = (leak + (rng.Float64()*6-3)*ulp) / eff
				case kind < 0.6:
					power[i] = leak / eff * (0.5 + rng.Float64())
				default:
					power[i] = rng.Float64() * 0.9
				}
			}
		}
		turnOn, brownOut := 0.5, 0.05
		if trial%2 == 1 {
			turnOn, brownOut = 0.05, 0.05
		}
		mkStore := func() *energy.Storage {
			return &energy.Storage{
				CapacityMJ: capacity, TurnOnMJ: turnOn, BrownOutMJ: brownOut,
				ChargeEfficiency: eff, LeakMWPerS: leak,
			}
		}
		t0 := 0.0 // whole clock: the first gaps run HarvestSeconds from a boundary
		if trial%4 >= 2 {
			t0 = rng.Float64() * 3
		}
		start(power, mkStore, t0)
		same(trial, 0)
		for step := 1; step <= 8; step++ {
			gap := math.Floor(rng.Float64() * 300)
			if rng.Float64() < 0.5 {
				gap = rng.Float64() * 300
			}
			advance(rng.Float64()*capacity*0.5, eng.Now()+gap)
			same(trial, step)
			if step%3 == 0 {
				target := rng.Float64() * capacity
				wait(trial, step, target, eng.Now()+rng.Float64()*300)
			}
		}
	}
	t.Logf("%d checks landed at capacity", atCapacity)
	if atCapacity < 100 {
		t.Fatalf("only %d checks landed at capacity; the capacitor-full trials no longer fill it", atCapacity)
	}
}
