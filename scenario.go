package ehinfer

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/exper"
)

// ScenarioBuilder assembles a core.Scenario fluently, replacing the
// struct-stuffing a custom setup used to require. Every knob defaults
// to the paper's §V value, so the zero-configuration build reproduces
// DefaultScenario; calls override one axis at a time and may be chained
// in any order. Errors accumulate — the first one surfaces from Build —
// so a chain never needs intermediate checks:
//
//	sc, err := ehinfer.NewScenario().
//		Seed(7).
//		Kinetic(4, 0.9).
//		BurstyEvents(300, 5).
//		DeviceNamed("ApolloM4").
//		Capacitor(10).
//		Build()
type ScenarioBuilder struct {
	seed     uint64
	trace    func(seed uint64) (*energy.Trace, error)
	schedule func(duration int, seed uint64) *energy.Schedule
	device   *Device
	storage  *Storage
	testSet  *Dataset
	err      error
}

// NewScenario starts a builder with the paper's defaults: the §V solar
// trace, 500 uniform events, the MSP432 device, the 6 mJ capacitor, and
// seed 42.
func NewScenario() *ScenarioBuilder { return &ScenarioBuilder{seed: 42} }

// NewScenario starts a scenario builder seeded from the session, so an
// unmodified Build reproduces Session.Scenario().
func (s *Session) NewScenario() *ScenarioBuilder {
	b := NewScenario()
	b.seed = s.seed
	return b
}

func (b *ScenarioBuilder) fail(err error) *ScenarioBuilder {
	if b.err == nil {
		b.err = err
	}
	return b
}

// Seed sets the seed every stochastic component derives from.
func (b *ScenarioBuilder) Seed(seed uint64) *ScenarioBuilder {
	b.seed = seed
	return b
}

// Solar selects a synthetic solar trace of the given duration and
// clear-sky peak power (0 = generator defaults).
func (b *ScenarioBuilder) Solar(hours, peakMW float64) *ScenarioBuilder {
	if !(hours >= 0) {
		return b.fail(fmt.Errorf("ehinfer: solar trace needs non-negative hours, got %g", hours))
	}
	b.trace = func(seed uint64) (*energy.Trace, error) {
		return energy.SyntheticSolarTrace(energy.SolarConfig{
			Seconds: int(hours * 3600), PeakPower: peakMW, Seed: seed,
		}), nil
	}
	return b
}

// Kinetic selects a synthetic bursty kinetic trace.
func (b *ScenarioBuilder) Kinetic(hours, burstMW float64) *ScenarioBuilder {
	if !(hours >= 0) {
		return b.fail(fmt.Errorf("ehinfer: kinetic trace needs non-negative hours, got %g", hours))
	}
	b.trace = func(seed uint64) (*energy.Trace, error) {
		return energy.SyntheticKineticTrace(energy.KineticConfig{
			Seconds: int(hours * 3600), BurstPower: burstMW, Seed: seed,
		}), nil
	}
	return b
}

// Trace supplies a materialized harvesting trace (e.g. a measured one).
func (b *ScenarioBuilder) Trace(tr *Trace) *ScenarioBuilder {
	if tr == nil || tr.Duration() == 0 {
		return b.fail(fmt.Errorf("ehinfer: scenario trace is empty"))
	}
	b.trace = func(uint64) (*energy.Trace, error) { return tr, nil }
	return b
}

// TraceCSV loads the trace from a CSV file at Build time.
func (b *ScenarioBuilder) TraceCSV(path string) *ScenarioBuilder {
	b.trace = energy.TraceFromCSV(path)
	return b
}

// RegisteredTrace selects a trace builder registered under name (see
// RegisterTrace), resolved at Build time.
func (b *ScenarioBuilder) RegisteredTrace(name string) *ScenarioBuilder {
	b.trace = func(seed uint64) (*energy.Trace, error) {
		build, err := exper.LookupTrace(name)
		if err != nil {
			return nil, err
		}
		return build(seed)
	}
	return b
}

// Events draws n sensing events uniformly over the trace with the given
// class alphabet.
func (b *ScenarioBuilder) Events(n, classes int) *ScenarioBuilder {
	if n < 1 || classes < 2 {
		return b.fail(fmt.Errorf("ehinfer: scenario needs ≥1 event and ≥2 classes, got %d/%d", n, classes))
	}
	b.schedule = func(duration int, seed uint64) *energy.Schedule {
		return energy.UniformSchedule(n, duration, classes, seed)
	}
	return b
}

// BurstyEvents draws n events in activity bursts of the given mean
// length, 10 classes.
func (b *ScenarioBuilder) BurstyEvents(n int, meanBurst float64) *ScenarioBuilder {
	if n < 1 || meanBurst <= 0 {
		return b.fail(fmt.Errorf("ehinfer: bursty schedule needs ≥1 event and positive burst length"))
	}
	b.schedule = func(duration int, seed uint64) *energy.Schedule {
		return energy.BurstySchedule(n, duration, 10, meanBurst, seed)
	}
	return b
}

// Schedule supplies a materialized event schedule.
func (b *ScenarioBuilder) Schedule(s *Schedule) *ScenarioBuilder {
	if s == nil || len(s.Events) == 0 {
		return b.fail(fmt.Errorf("ehinfer: scenario schedule is empty"))
	}
	b.schedule = func(int, uint64) *energy.Schedule { return s }
	return b
}

// Device sets the MCU cost model.
func (b *ScenarioBuilder) Device(d *Device) *ScenarioBuilder {
	if d == nil {
		return b.fail(fmt.Errorf("ehinfer: scenario device is nil"))
	}
	if err := d.Validate(); err != nil {
		return b.fail(err)
	}
	b.device = d
	return b
}

// DeviceNamed resolves the device from the open registry (built-ins
// plus RegisterDevice registrations), at call time.
func (b *ScenarioBuilder) DeviceNamed(name string) *ScenarioBuilder {
	spec, err := exper.LookupDevice(name)
	if err != nil {
		return b.fail(err)
	}
	b.device = spec.Build()
	return b
}

// Capacitor sets the storage to the paper's threshold profile at the
// given capacity in mJ.
func (b *ScenarioBuilder) Capacitor(capacityMJ float64) *ScenarioBuilder {
	if capacityMJ <= 0 {
		return b.fail(fmt.Errorf("ehinfer: capacitor capacity must be positive, got %g mJ", capacityMJ))
	}
	st := exper.Capacitor(capacityMJ).Storage
	b.storage = &st
	return b
}

// Storage supplies a fully custom energy store.
func (b *ScenarioBuilder) Storage(st Storage) *ScenarioBuilder {
	b.storage = &st
	return b
}

// Empirical switches the scenario to empirical mode: events carry real
// samples from the test set (assigned class-consistently at Build) and
// the deployed network actually executes on the configured backend.
func (b *ScenarioBuilder) Empirical(test *Dataset) *ScenarioBuilder {
	if test == nil || test.Len() == 0 {
		return b.fail(fmt.Errorf("ehinfer: empirical scenario needs a non-empty test set"))
	}
	b.testSet = test
	return b
}

// Build materializes the scenario. Axes left unset keep the paper's
// defaults; the first accumulated error aborts.
func (b *ScenarioBuilder) Build() (*Scenario, error) {
	if b.err != nil {
		return nil, b.err
	}
	sc := core.DefaultScenario(b.seed)
	if b.trace != nil {
		tr, err := b.trace(b.seed)
		if err != nil {
			return nil, err
		}
		if tr.Duration() == 0 {
			return nil, fmt.Errorf("ehinfer: scenario trace is empty")
		}
		sc.Trace = tr
		if b.schedule == nil {
			// The default 500-event schedule must span the *chosen*
			// trace, not the default one.
			b.Events(500, 10)
			if b.err != nil {
				return nil, b.err
			}
		}
	}
	if b.schedule != nil {
		sc.Schedule = b.schedule(sc.Trace.Duration(), b.seed)
	}
	if b.device != nil {
		sc.Device = b.device
	}
	if b.storage != nil {
		sc.Storage = b.storage
	}
	if b.testSet != nil {
		byClass := make([][]int, classCount(b.testSet))
		for i, s := range b.testSet.Samples {
			byClass[s.Label] = append(byClass[s.Label], i)
		}
		if err := sc.Schedule.AttachSamples(byClass, b.seed); err != nil {
			return nil, err
		}
		sc.TestSet = b.testSet
	}
	return sc, nil
}

// classCount returns 1 + the largest label in the set.
func classCount(set *Dataset) int {
	n := 0
	for _, s := range set.Samples {
		if s.Label+1 > n {
			n = s.Label + 1
		}
	}
	return n
}
