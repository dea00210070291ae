// Package core assembles the paper's complete system: the offline phase
// (train → nonuniform compression → deploy-check against the MCU) and the
// online phase (event-driven intermittent inference with Q-learned exit
// selection and incremental refinement). It also hosts the experiment
// drivers that regenerate every figure of §V.
//
// Two accuracy backends are supported (DESIGN.md §2):
//
//   - Surrogate mode: per-event correctness is drawn from the calibrated
//     per-exit accuracies via a per-event difficulty variable u ∈ [0,1);
//     the event is correct at exit i iff u < Acc_i. Because exit
//     accuracies increase with depth, incremental inference monotonically
//     repairs borderline events, matching the paper's mechanism. This
//     backend powers the paper-figure benches (fast, deterministic).
//
//   - Empirical mode: events carry real SynthCIFAR samples and the actual
//     compressed network runs (and resumes) on them; confidence is the
//     true normalized-entropy confidence. This backend powers the
//     examples and integration tests.
package core

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/intermittent"
	"repro/internal/mcu"
	"repro/internal/metrics"
	"repro/internal/multiexit"
	"repro/internal/plan"
	"repro/internal/qlearn"
	"repro/internal/tensor"
)

// PolicyMode selects the runtime exit-selection strategy.
type PolicyMode int

const (
	// PolicyQLearning is the paper's adaptive runtime (§IV).
	PolicyQLearning PolicyMode = iota
	// PolicyStaticLUT is the static greedy baseline: deepest affordable
	// exit, fixed confidence threshold for incremental inference.
	PolicyStaticLUT
)

func (m PolicyMode) String() string {
	switch m {
	case PolicyQLearning:
		return "q-learning"
	case PolicyStaticLUT:
		return "static-lut"
	default:
		return fmt.Sprintf("PolicyMode(%d)", int(m))
	}
}

// Deployed is a compressed multi-exit network plus everything the runtime
// needs to schedule it on the device.
type Deployed struct {
	Net *multiexit.Network
	// ExitAccs is the per-exit accuracy after compression (surrogate
	// prediction or empirically measured).
	ExitAccs []float64
	// ExitFLOPs is the per-exit MAC cost after compression.
	ExitFLOPs []int64
	// Marginal[i][j] is the cost of resuming from exit i to exit j.
	Marginal [][]int64
	// WeightBytes is the deployed model size.
	WeightBytes int64
	// DefaultBackend is the deployment's own preferred empirical-mode
	// inference backend. It applies only when neither the runtime config
	// nor an outer default (session, engine, grid) names a backend — a
	// loaded artifact runs the way it was packaged unless the caller
	// explicitly overrides.
	DefaultBackend InferBackend
	// Int8Calibration, when non-nil, pins the int8 backend's
	// requantization scales (see BindInt8Calibration). Pinned scales let
	// a deployment run int8 without calibration images — the
	// "compress once, flash once" contract a serialized artifact keeps.
	Int8Calibration *plan.Calibration

	// planc caches the compiled float32 inference plan (see FloatPlan);
	// planc8 caches the pinned-scale int8 plan (see Int8PlanPinned);
	// planc8f the pinned-scale packed-weight fast plan
	// (see Int8FastPlanPinned).
	planc   planCache
	planc8  planCache
	planc8f planCache
}

// NewDeployed captures the deployment view of a (compressed) network.
func NewDeployed(net *multiexit.Network, exitAccs []float64) (*Deployed, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	m := net.NumExits()
	if len(exitAccs) != m {
		return nil, fmt.Errorf("core: %d exit accuracies for %d exits", len(exitAccs), m)
	}
	d := &Deployed{
		Net:         net,
		ExitAccs:    append([]float64(nil), exitAccs...),
		WeightBytes: net.WeightBytes(),
	}
	for i := 0; i < m; i++ {
		d.ExitFLOPs = append(d.ExitFLOPs, net.ExitFLOPs(i))
	}
	d.Marginal = make([][]int64, m)
	for i := 0; i < m; i++ {
		d.Marginal[i] = make([]int64, m)
		for j := i + 1; j < m; j++ {
			d.Marginal[i][j] = net.MarginalFLOPs(i, j)
		}
	}
	return d, nil
}

// CheckFits verifies the deployment against the device storage budget.
func (d *Deployed) CheckFits(dev *mcu.Device) error {
	if !dev.FitsStorage(d.WeightBytes) {
		return fmt.Errorf("core: model is %d bytes but %s has only %d bytes of weight storage",
			d.WeightBytes, dev.Name, dev.WeightStorageBytes)
	}
	return nil
}

// EnergyCosts returns the energy (mJ) on dev of an inference to each
// exit and of each one-step resume (exit i to i+1; the last is 0).
func (d *Deployed) EnergyCosts(dev *mcu.Device) (exits, resumes []float64) {
	m := len(d.ExitFLOPs)
	exits = make([]float64, m)
	resumes = make([]float64, m)
	for i, f := range d.ExitFLOPs {
		exits[i] = dev.ComputeEnergyMJ(f)
		if i+1 < m {
			resumes[i] = dev.ComputeEnergyMJ(d.Marginal[i][i+1])
		}
	}
	return exits, resumes
}

// RuntimeConfig parameterizes a simulation run.
type RuntimeConfig struct {
	Mode PolicyMode
	// Device defaults to mcu.MSP432().
	Device *mcu.Device
	// Storage defaults to energy.DefaultStorage().
	Storage *energy.Storage
	// ConfidenceThreshold is the static incremental-inference threshold
	// (default DefaultConfidenceThreshold).
	ConfidenceThreshold float64
	// DisableIncremental turns off incremental inference (ablation).
	DisableIncremental bool
	// EnergyBins/PowerBins/ConfBins discretize the Q-state (defaults
	// DefaultEnergyBins/DefaultPowerBins/DefaultConfBins).
	EnergyBins int
	PowerBins  int
	ConfBins   int
	// Seed drives exploration and surrogate correctness draws.
	Seed uint64
	// TestSet, when non-nil, switches to empirical mode: events must
	// carry SampleIndex into this set.
	TestSet *dataset.Set
	// Backend selects how empirical-mode inference executes (default
	// BackendPlan: the compiled zero-allocation plan, bit-identical to
	// the layer walk). Surrogate runs ignore it.
	Backend InferBackend
	// Calibration supplies held-out images (CHW, [0,1] pixels) for the
	// int8 backend's activation-scale calibration. When empty, the
	// first samples of TestSet are used — convenient, but that leaks
	// evaluation data into the quantization scales, so pass training or
	// held-out samples when reporting int8 accuracy.
	Calibration []*tensor.Tensor
	// SkipFitCheck bypasses the storage-fit check (for deliberately
	// oversized ablations).
	SkipFitCheck bool
}

func (c *RuntimeConfig) fillDefaults() {
	if c.Device == nil {
		c.Device = mcu.MSP432()
	}
	if c.Storage == nil {
		c.Storage = energy.DefaultStorage()
	}
	if c.ConfidenceThreshold == 0 {
		c.ConfidenceThreshold = DefaultConfidenceThreshold
	}
	if c.EnergyBins == 0 {
		c.EnergyBins = DefaultEnergyBins
	}
	if c.PowerBins == 0 {
		c.PowerBins = DefaultPowerBins
	}
	if c.ConfBins == 0 {
		c.ConfBins = DefaultConfBins
	}
}

// Runtime executes event schedules against a deployed network. Its
// Q-tables persist across Run calls, so successive runs implement the
// learning episodes of Fig. 7a.
type Runtime struct {
	cfg RuntimeConfig
	ep  Episode

	// lastTrace/lastPeak memoize the trace peak across Runs: learning
	// loops re-run the same trace dozens of times, and the peak is a
	// pure function of the trace.
	lastTrace *energy.Trace
	lastPeak  float64
}

// NewRuntime builds a runtime for the deployment.
func NewRuntime(d *Deployed, cfg RuntimeConfig) (*Runtime, error) {
	cfg.fillDefaults()
	if !cfg.SkipFitCheck {
		if err := d.CheckFits(cfg.Device); err != nil {
			return nil, err
		}
	}
	costs, margCosts := d.EnergyCosts(cfg.Device)
	r := &Runtime{cfg: cfg}
	r.ep = Episode{
		Mode:               cfg.Mode,
		DisableIncremental: cfg.DisableIncremental,
		Deployed:           d,
		Costs:              costs,
		MargCosts:          margCosts,
		Static:             qlearn.NewStaticLUT(costs, cfg.ConfidenceThreshold),
		RNG:                tensor.NewRNG(cfg.Seed + 0xc0fe),
	}
	if cfg.Backend == BackendDefault {
		// No explicit choice anywhere up the stack: the deployment's own
		// default (e.g. the backend a loaded artifact was packaged with)
		// applies before the global plan default.
		cfg.Backend = d.DefaultBackend
	}
	cfg.Backend = cfg.Backend.Resolve()
	r.cfg.Backend = cfg.Backend
	if cfg.TestSet != nil && cfg.Backend != BackendLegacy {
		// Empirical mode on a compiled backend: build the executor once.
		if cfg.Backend == BackendInt8 || cfg.Backend == BackendInt8Fast {
			// An integer backend was explicitly requested; a deployment
			// that cannot lower must not silently produce float results.
			calib := cfg.Calibration
			if len(calib) == 0 && d.Int8Calibration == nil {
				calib = calibrationSamples(cfg.TestSet, 8)
			}
			p, perr := d.int8Plan(calib, cfg.Backend == BackendInt8Fast)
			if perr != nil {
				return nil, fmt.Errorf("core: %s backend unavailable for this deployment: %w", cfg.Backend, perr)
			}
			r.ep.Plan = p.NewExec()
			r.ep.PlanState = p.NewState()
		} else if p, perr := d.FloatPlan(); perr == nil {
			// The float plan is bit-identical to the layer walk, so a
			// deployment that cannot compile (exotic architecture)
			// falls back to the walk — same results, just slower.
			r.ep.Plan = p.NewExec()
			r.ep.PlanState = p.NewState()
		}
	}
	const maxPowerInit = 0.05 // mW; rebinned per-run from the trace peak
	r.ep.ExitAgent = qlearn.NewExitAgent(len(costs), cfg.EnergyBins, cfg.PowerBins, cfg.Storage.CapacityMJ, maxPowerInit)
	r.ep.IncrAgent = qlearn.NewIncrementalAgent(cfg.ConfBins, cfg.EnergyBins, cfg.Storage.CapacityMJ)
	SeedExitQ(r.ep.ExitAgent.Table, r.ep.RNG)
	return r, nil
}

// calibrationSamples collects up to n deterministic calibration images
// (the set's first samples) for the int8 lowering.
func calibrationSamples(set *dataset.Set, n int) []*tensor.Tensor {
	if set.Len() < n {
		n = set.Len()
	}
	imgs := make([]*tensor.Tensor, 0, n)
	for i := 0; i < n; i++ {
		imgs = append(imgs, set.Samples[i].Image)
	}
	return imgs
}

// Backend reports the effective inference backend: the configured one,
// downgraded to legacy when no plan could be compiled.
func (r *Runtime) Backend() InferBackend {
	if r.cfg.TestSet != nil && r.ep.Plan == nil {
		return BackendLegacy
	}
	return r.cfg.Backend
}

// SetExploration sets ε on both Q-tables (0 for greedy evaluation).
func (r *Runtime) SetExploration(eps float64) {
	r.ep.ExitAgent.Table.Epsilon = eps
	r.ep.IncrAgent.Table.Epsilon = eps
}

// Run simulates one pass of the schedule over the trace and returns the
// outcome report. Q-tables carry over between calls.
func (r *Runtime) Run(trace *energy.Trace, schedule *energy.Schedule) (*metrics.Report, error) {
	store := *r.cfg.Storage // fresh copy per run
	engine, err := intermittent.New(r.cfg.Device, &store, trace)
	if err != nil {
		return nil, err
	}
	// Rebin the power observation to the trace's scale.
	if trace != r.lastTrace {
		r.lastTrace, r.lastPeak = trace, trace.Peak()
	}
	if p := r.lastPeak; p > 0 {
		r.ep.ExitAgent.MaxPowerMW = p
	}

	events := schedule.Events
	report := &metrics.Report{
		System:   "multi-exit/" + r.cfg.Mode.String(),
		NumExits: r.ep.Deployed.Net.NumExits(),
		Outcomes: make([]metrics.EventOutcome, len(events)),
	}
	for idx, ev := range events {
		deadline := trace.Duration()
		if idx+1 < len(events) {
			deadline = events[idx+1].T
		}
		var sample *dataset.Sample
		if r.cfg.TestSet != nil {
			if ev.SampleIndex < 0 || ev.SampleIndex >= r.cfg.TestSet.Len() {
				return nil, fmt.Errorf("core: event %d has no sample attached for empirical mode", idx)
			}
			sample = &r.cfg.TestSet.Samples[ev.SampleIndex]
		}
		out := &report.Outcomes[idx]
		r.ep.Event(engine, ev.T, deadline, sample, out, &out.EnergyMJ)
	}
	r.ep.End(engine)
	report.HarvestedMJ = engine.Stats().HarvestedMJ
	return report, nil
}
