// Package energy models the energy-harvesting side of the system: solar
// harvesting traces, the capacitor energy store with turn-on/brown-out
// thresholds, and the event schedule that triggers inferences.
//
// The paper powers its MSP432 from a measured NREL solar profile [17].
// That dataset is not available offline, so SyntheticSolarTrace generates
// a diurnal irradiance arc modulated by an AR(1) cloud-occlusion process
// (DESIGN.md §2); real traces can be loaded with LoadTraceCSV. All
// energies are in millijoules and times in seconds (the paper's "time
// unit" is 1 s).
package energy

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Trace is a harvesting power profile: Power[t] is the average harvested
// power (mW) during second t.
type Trace struct {
	// Power in milliwatts per 1-second step.
	Power []float64
}

// Duration returns the trace length in seconds.
func (t *Trace) Duration() int { return len(t.Power) }

// Peak returns the trace's maximum power (mW).
func (t *Trace) Peak() float64 {
	var peak float64
	for _, p := range t.Power {
		if p > peak {
			peak = p
		}
	}
	return peak
}

// TotalEnergy returns the total harvestable energy (mJ) over the trace.
func (t *Trace) TotalEnergy() float64 {
	var e float64
	for _, p := range t.Power {
		e += p // mW × 1 s = mJ
	}
	return e
}

// MeanPower returns the mean harvested power in mW.
func (t *Trace) MeanPower() float64 {
	if len(t.Power) == 0 {
		return 0
	}
	return t.TotalEnergy() / float64(len(t.Power))
}

// At returns the harvesting power at second ti, clamping out-of-range
// indices to zero.
func (t *Trace) At(ti int) float64 {
	if ti < 0 || ti >= len(t.Power) {
		return 0
	}
	return t.Power[ti]
}

// Slice returns the sub-trace [from, to).
func (t *Trace) Slice(from, to int) *Trace {
	if from < 0 {
		from = 0
	}
	if to > len(t.Power) {
		to = len(t.Power)
	}
	if from >= to {
		return &Trace{}
	}
	return &Trace{Power: t.Power[from:to]}
}

// SolarConfig parameterizes SyntheticSolarTrace.
type SolarConfig struct {
	// Seconds is the trace duration (default 6 h = 21600 s).
	Seconds int
	// PeakPower is the clear-sky midday harvesting power in mW
	// (default 0.45 mW — small-panel indoor/outdoor EH regime that
	// yields the multi-power-cycle-per-inference behaviour the paper
	// targets).
	PeakPower float64
	// CloudTau is the AR(1) correlation time of cloud occlusion in
	// seconds (default 120 s).
	CloudTau float64
	// CloudDepth in [0, 1] scales how much clouds attenuate (default
	// 0.6).
	CloudDepth float64
	// Seed drives the cloud process.
	Seed uint64
}

func (c *SolarConfig) fillDefaults() {
	if c.Seconds == 0 {
		c.Seconds = 21600
	}
	if c.PeakPower == 0 {
		c.PeakPower = 0.45
	}
	if c.CloudTau == 0 {
		c.CloudTau = 120
	}
	if c.CloudDepth == 0 {
		c.CloudDepth = 0.6
	}
}

// SyntheticSolarTrace generates a diurnal solar harvesting profile: a
// half-sine day arc (sunrise at t=0, sunset at t=Seconds) multiplied by a
// mean-reverting cloud process, qualitatively matching the rotating-
// shadowband-radiometer profile the paper uses: smooth diurnal envelope
// with minute-scale stochastic dips.
func SyntheticSolarTrace(cfg SolarConfig) *Trace {
	cfg.fillDefaults()
	rng := tensor.NewRNG(cfg.Seed + 0x5017a)
	power := make([]float64, cfg.Seconds)
	// AR(1) occlusion state in [0, 1]; 0 = clear sky.
	occ := 0.3
	rho := math.Exp(-1 / cfg.CloudTau)
	noiseStd := math.Sqrt(1-rho*rho) * 0.35
	for t := 0; t < cfg.Seconds; t++ {
		dayArc := math.Sin(math.Pi * float64(t) / float64(cfg.Seconds))
		occ = rho*occ + (1-rho)*0.3 + noiseStd*rng.NormFloat64()
		if occ < 0 {
			occ = 0
		}
		if occ > 1 {
			occ = 1
		}
		p := cfg.PeakPower * dayArc * (1 - cfg.CloudDepth*occ)
		if p < 0 {
			p = 0
		}
		power[t] = p
	}
	return &Trace{Power: power}
}

// ConstantTrace returns a trace with fixed harvesting power (mW) — useful
// for tests and controlled ablations.
func ConstantTrace(seconds int, mw float64) *Trace {
	if seconds < 0 {
		panic(fmt.Sprintf("energy: negative trace duration %d", seconds))
	}
	power := make([]float64, seconds)
	for i := range power {
		power[i] = mw
	}
	return &Trace{Power: power}
}

// KineticConfig parameterizes SyntheticKineticTrace, a bursty
// motion-harvester profile (e.g. the paper's cited shoe-mounted
// harvesters): near-zero baseline with activity bursts.
type KineticConfig struct {
	Seconds int
	// BurstPower is the power during activity bursts in mW (default 0.9).
	BurstPower float64
	// BurstMean is the mean burst length in seconds (default 180).
	BurstMean float64
	// IdleMean is the mean idle gap in seconds (default 600).
	IdleMean float64
	Seed     uint64
}

func (c *KineticConfig) fillDefaults() {
	if c.Seconds == 0 {
		c.Seconds = 21600
	}
	if c.BurstPower == 0 {
		c.BurstPower = 0.9
	}
	if c.BurstMean == 0 {
		c.BurstMean = 180
	}
	if c.IdleMean == 0 {
		c.IdleMean = 600
	}
}

// SyntheticKineticTrace generates an on/off kinetic harvesting profile
// with exponentially distributed burst and idle durations.
func SyntheticKineticTrace(cfg KineticConfig) *Trace {
	cfg.fillDefaults()
	rng := tensor.NewRNG(cfg.Seed + 0x4a3e71c)
	power := make([]float64, cfg.Seconds)
	t := 0
	active := false
	for t < cfg.Seconds {
		var dur int
		mean := cfg.IdleMean
		if active {
			mean = cfg.BurstMean
		}
		dur = int(-mean*math.Log(1-rng.Float64())) + 1
		for i := 0; i < dur && t < cfg.Seconds; i++ {
			if active {
				// Jittered burst power.
				power[t] = cfg.BurstPower * (0.7 + 0.6*rng.Float64())
			}
			t++
		}
		active = !active
	}
	return &Trace{Power: power}
}
