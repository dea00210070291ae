package energy

import "fmt"

// Storage models the capacitor-backed energy buffer of an intermittently
// powered device. Harvested energy charges the buffer (with a charging
// efficiency < 1); computation drains it. The device can compute only
// while the buffer is above the brown-out threshold, and after a power
// failure it must recharge past the turn-on threshold before resuming —
// the classic intermittent-computing hysteresis.
type Storage struct {
	// CapacityMJ is the usable buffer capacity in mJ.
	CapacityMJ float64
	// TurnOnMJ is the level required to (re)start computing after a
	// brown-out.
	TurnOnMJ float64
	// BrownOutMJ is the level below which computation halts.
	BrownOutMJ float64
	// ChargeEfficiency scales harvested energy into stored energy.
	ChargeEfficiency float64
	// LeakMWPerS is a constant leakage drain in mW.
	LeakMWPerS float64

	level float64
	on    bool
}

// DefaultStorage returns the buffer used throughout the experiments:
// a 10 mJ usable capacitor (≈ 470 µF class at MSP432 voltages) with 70%
// charging efficiency and a 1 mJ turn-on / 0.05 mJ brown-out window.
func DefaultStorage() *Storage {
	return &Storage{
		CapacityMJ:       10,
		TurnOnMJ:         1.0,
		BrownOutMJ:       0.05,
		ChargeEfficiency: 0.7,
		LeakMWPerS:       0.001,
	}
}

// Validate reports configuration errors.
func (s *Storage) Validate() error {
	switch {
	case s.CapacityMJ <= 0:
		return fmt.Errorf("energy: storage capacity must be positive, got %g", s.CapacityMJ)
	case s.TurnOnMJ < s.BrownOutMJ:
		return fmt.Errorf("energy: turn-on threshold %g below brown-out %g", s.TurnOnMJ, s.BrownOutMJ)
	case s.TurnOnMJ > s.CapacityMJ:
		return fmt.Errorf("energy: turn-on threshold %g exceeds capacity %g", s.TurnOnMJ, s.CapacityMJ)
	case s.ChargeEfficiency <= 0 || s.ChargeEfficiency > 1:
		return fmt.Errorf("energy: charging efficiency %g outside (0, 1]", s.ChargeEfficiency)
	case s.BrownOutMJ < 0 || s.LeakMWPerS < 0:
		return fmt.Errorf("energy: negative threshold or leakage")
	}
	return nil
}

// Level returns the current stored energy (mJ).
func (s *Storage) Level() float64 { return s.level }

// SetLevel forces the stored energy (clamped to [0, capacity]); tests and
// simulation warm-up use this.
func (s *Storage) SetLevel(mj float64) {
	if mj < 0 {
		mj = 0
	}
	if mj > s.CapacityMJ {
		mj = s.CapacityMJ
	}
	s.level = mj
	s.on = s.level >= s.TurnOnMJ
}

// On reports whether the device is currently powered (past turn-on and
// not browned out).
func (s *Storage) On() bool { return s.on }

// Harvest charges the buffer with harvested energy (mJ, pre-efficiency)
// over dt seconds, applying charging efficiency, leakage, and the
// capacity clamp. It returns the energy actually stored.
func (s *Storage) Harvest(mj, dt float64) float64 {
	stored := mj * s.ChargeEfficiency
	before := s.level
	s.level += stored
	s.level -= s.LeakMWPerS * dt
	if s.level < 0 {
		s.level = 0
	}
	if s.level > s.CapacityMJ {
		s.level = s.CapacityMJ
	}
	if !s.on && s.level >= s.TurnOnMJ {
		s.on = true
	}
	return s.level - before
}

// HarvestSeconds charges the buffer over consecutive whole seconds of a
// power trace, one Harvest(p, 1) step per entry, with the storage state
// held in registers across the run. harvestedAcc/storedAcc are the
// caller's running energy ledgers; they are threaded through and
// returned (rather than summed locally and added once) so the
// floating-point accumulation chain — and therefore every downstream
// result — is bit-identical to calling Harvest second by second. This is
// the simulation engine's hottest loop: a 6-hour trace crosses it 21 600
// times per episode.
//
// Once a second clamps the buffer at capacity, the seconds after it
// whose charge keeps it there are skipped through: each would leave the
// level at capacity and the on-state as it is, and add level - before =
// +0 to the stored ledger, which is never -0 after a clamp (a sum is -0
// only if both terms are), so only the harvested ledger moves.
func (s *Storage) HarvestSeconds(power []float64, harvestedAcc, storedAcc float64) (float64, float64) {
	eff, leak := s.ChargeEfficiency, s.LeakMWPerS
	capacity, turnOn := s.CapacityMJ, s.TurnOnMJ
	level, on := s.level, s.on
	for i := 0; i < len(power); i++ {
		p := power[i]
		harvestedAcc += p // mW × 1 s = mJ, pre-efficiency
		before := level
		level += p * eff
		level -= leak
		if level < 0 {
			level = 0
		}
		if level > capacity {
			level = capacity
			if !on && level >= turnOn {
				on = true
			}
			storedAcc += level - before
			// Capacitor full: the stepping expressions, in the same
			// shape, so a fused multiply-add rounds alike in both.
			for i+1 < len(power) {
				x := capacity
				x += power[i+1] * eff
				x -= leak
				if !(x >= capacity) {
					break
				}
				i++
				harvestedAcc += power[i]
			}
			continue
		}
		if !on && level >= turnOn {
			on = true
		}
		storedAcc += level - before
	}
	s.level, s.on = level, on
	return harvestedAcc, storedAcc
}

// HarvestPairsUntil is the engine's fused energy-wait kernel: it
// harvests up to n whole 1-second wait steps starting at clock t (with
// sec0 = int(t) the first trace second, power[k] = trace power of
// second sec0+k, so len(power) ≥ n+1), and checks the availability
// target between steps exactly where the stepping loop checks it.
//
// Each step is decomposed into the same two spans the engine's stepper
// would use — [t_k, sec_k+1) then [sec_k+1, t_k+1) — with the span
// lengths and the clock RE-DERIVED per step from the rounded float
// chain (t_{k+1} = t_k + 1.0 exactly as the stepper advances; for a
// clock carrying a full 53-bit fraction that add rounds, so the spans
// are NOT loop constants). All state stays in registers; the float
// accumulation chains — level, clock, and the harvested/stored ledgers
// threaded through hAcc/stAcc — are bit-identical to calling Harvest
// span by span. target must be positive. Steps stop when the chained
// clock can no longer take a full second before limit — the same
// per-iteration test the stepper applies, on the same rounded clock.
// Returns the steps consumed, the clock after them, the updated
// ledgers, and whether the target was met.
func (s *Storage) HarvestPairsUntil(power []float64, n, sec0 int, t, limit, target, hAcc, stAcc float64) (steps int, now, h, st float64, met bool) {
	eff, leak := s.ChargeEfficiency, s.LeakMWPerS
	capacity, turnOn, brown := s.CapacityMJ, s.TurnOnMJ, s.BrownOutMJ
	level, on := s.level, s.on
	for k := 0; k < n; k++ {
		if t+1.0 > limit {
			// The stepper would clip this step to a fraction; leave it
			// (and everything after) to the generic path.
			s.level, s.on = level, on
			return k, t, hAcc, stAcc, false
		}
		// t_k ∈ [sec0+k, sec0+k+1) by construction, and the rounded
		// end never dips below the boundary, so a ∈ (0, 1] and b ≥ 0;
		// when the clock sits exactly on the boundary, b = 0 and span 2
		// degenerates to an exact identity — matching the stepper,
		// which runs a single whole-second span there.
		boundary := float64(sec0 + k + 1)
		end := t + 1.0
		a := boundary - t
		// Span 1: the tail of second sec0+k.
		mj := power[k] * a
		hAcc += mj
		before := level
		level += mj * eff
		level -= leak * a
		if level < 0 {
			level = 0
		}
		if level > capacity {
			level = capacity
		}
		if !on && level >= turnOn {
			on = true
		}
		stAcc += level - before
		// Span 2: the head of second sec0+k+1.
		b := end - boundary
		mj = power[k+1] * b
		hAcc += mj
		before = level
		level += mj * eff
		level -= leak * b
		if level < 0 {
			level = 0
		}
		if level > capacity {
			level = capacity
		}
		if !on && level >= turnOn {
			on = true
		}
		stAcc += level - before
		t = end
		if on && level-brown >= target {
			s.level, s.on = level, on
			return k + 1, t, hAcc, stAcc, true
		}
	}
	s.level, s.on = level, on
	return n, t, hAcc, stAcc, false
}

// DrainZero applies n whole 1-second wait steps of zero-power
// harvesting from clock t (with sec0 = int(t)): per step, the same two
// leak-only spans the stepper would run, with span lengths and the
// clock re-derived from the rounded float chain each step (see
// HarvestPairsUntil) and the stored-energy ledger threaded through.
// With zero harvest the remaining Harvest steps (adding 0 stored
// energy, the capacity clamp, the turn-on check) are exact identities,
// so this reproduces Harvest(0, dt1); Harvest(0, dt2) per second bit
// for bit. Once the buffer is empty the physical state stops changing
// and only the clock chain is replayed — cheap adds — which is what
// lets the engine sleep through a harvesting night. Steps stop when the
// chained clock can no longer take a full second before limit, like the
// stepper. Returns the clock after the steps and the updated ledger.
func (s *Storage) DrainZero(n, sec0 int, t, limit, storedAcc float64) (now, st float64) {
	leak, turnOn := s.LeakMWPerS, s.TurnOnMJ
	level, on := s.level, s.on
	for k := 0; k < n; k++ {
		if t+1.0 > limit {
			break
		}
		boundary := float64(sec0 + k + 1)
		end := t + 1.0
		before := level
		level -= leak * (boundary - t)
		if level < 0 {
			level = 0
		}
		// Harvest's turn-on transition: reachable here only when
		// TurnOnMJ == BrownOutMJ (a browned-out buffer otherwise sits
		// strictly below turn-on and draining cannot raise it), but it
		// must fire exactly where the stepper would.
		if !on && level >= turnOn {
			on = true
		}
		storedAcc += level - before
		before = level
		level -= leak * (end - boundary)
		if level < 0 {
			level = 0
		}
		if !on && level >= turnOn {
			on = true
		}
		storedAcc += level - before
		t = end
		if level == 0 {
			// Physical state is now a fixed point: level stays 0, and
			// the turn-on check cannot newly fire (with turnOn == 0 it
			// already fired on this span; with turnOn > 0 an empty
			// buffer sits below it). Subsequent seconds change nothing
			// but the clock.
			for k++; k < n && t+1.0 <= limit; k++ {
				t += 1.0
			}
			break
		}
	}
	s.level, s.on = level, on
	return t, storedAcc
}

// Available returns the energy spendable before brown-out (mJ).
func (s *Storage) Available() float64 {
	if !s.on {
		return 0
	}
	a := s.level - s.BrownOutMJ
	if a < 0 {
		return 0
	}
	return a
}

// Spend drains mj from the buffer for computation. It returns false —
// and drains only down to the brown-out floor, turning the device off —
// if the request exceeds the available energy (a power failure mid-task).
func (s *Storage) Spend(mj float64) bool {
	if mj < 0 {
		panic(fmt.Sprintf("energy: negative spend %g", mj))
	}
	if !s.on {
		return false
	}
	if mj <= s.Available() {
		s.level -= mj
		if s.level <= s.BrownOutMJ {
			s.on = false
		}
		return true
	}
	s.level = s.BrownOutMJ
	s.on = false
	return false
}
