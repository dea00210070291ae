package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/accmodel"
	"repro/internal/baselines"
	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/mcu"
	"repro/internal/metrics"
	"repro/internal/multiexit"
	"repro/internal/tensor"
)

// Scenario bundles the shared experimental setup of §V: the solar trace,
// the 500-event schedule, the storage and device models.
type Scenario struct {
	Trace    *energy.Trace
	Schedule *energy.Schedule
	Device   *mcu.Device
	Storage  *energy.Storage
	Seed     uint64
	// TestSet, when non-nil, switches the scenario to empirical mode:
	// events must carry SampleIndex into this set (see
	// Schedule.AttachSamples) and the deployed network actually executes
	// on the configured inference backend instead of the accuracy
	// surrogate.
	TestSet *dataset.Set
}

// DefaultScenario reproduces the paper's setup: a 6-hour solar harvesting
// trace in the weak-EH regime (≈ 15 µW mean — a baseline inference costs
// more than one capacitor charge, so single-exit baselines span multiple
// power cycles per inference, matching the paper's premise) and 500
// events uniformly distributed over the trace. The 6 mJ capacitor covers
// the compressed final exit (≈ 1.5 mJ) only when well charged, so deep
// exits are reachable but rationed — the dynamics behind Fig. 7b's exit
// shares.
func DefaultScenario(seed uint64) *Scenario {
	trace := energy.SyntheticSolarTrace(energy.SolarConfig{
		Seconds:   21600,
		PeakPower: 0.032,
		Seed:      seed,
	})
	schedule := energy.UniformSchedule(500, trace.Duration(), 10, seed)
	return &Scenario{
		Trace:    trace,
		Schedule: schedule,
		Device:   mcu.MSP432(),
		Storage: &energy.Storage{
			CapacityMJ:       6,
			TurnOnMJ:         0.5,
			BrownOutMJ:       0.05,
			ChargeEfficiency: 0.9,
			LeakMWPerS:       0.0002,
		},
		Seed: seed,
	}
}

// BuildDeployed constructs the paper's deployed system: LeNet-EE
// compressed with the given policy, with surrogate per-exit accuracies.
func BuildDeployed(policy *compress.Policy, seed uint64) (*Deployed, error) {
	net := multiexit.LeNetEE(tensor.NewRNG(seed + 0xdeb7))
	sur, err := accmodel.New(net, nil)
	if err != nil {
		return nil, err
	}
	accs := sur.ExitAccuracies(policy)
	if err := compress.Apply(net, policy); err != nil {
		return nil, err
	}
	return NewDeployed(net, accs)
}

// SystemRow is one line of the Fig. 5 / §V-D comparison.
type SystemRow struct {
	System        string
	IEpmJ         float64
	AccAll        float64
	AccProcessed  float64
	MeanLatencyS  float64
	MeanInfFLOPs  float64
	ProcessedFrac float64
	ExitShares    []float64
}

// ReportRow flattens a report into a SystemRow. Latency and FLOPs are 0
// (not NaN) when no event was processed, so rows marshal cleanly to JSON.
func ReportRow(r *metrics.Report) SystemRow {
	lat := r.MeanEventLatency()
	if math.IsNaN(lat) {
		lat = 0
	}
	flops := r.MeanInferenceFLOPs()
	if math.IsNaN(flops) {
		flops = 0
	}
	return SystemRow{
		System:        r.System,
		IEpmJ:         r.IEpmJ(),
		AccAll:        r.AccuracyAllEvents(),
		AccProcessed:  r.AccuracyProcessed(),
		MeanLatencyS:  lat,
		MeanInfFLOPs:  flops,
		ProcessedFrac: float64(r.ProcessedCount()) / float64(max(1, r.Events())),
		ExitShares:    r.ExitPercentages(),
	}
}

// CompareConfig tweaks the full-system comparison.
type CompareConfig struct {
	// WarmupEpisodes pre-trains the Q-tables before the measured pass
	// (default 8).
	WarmupEpisodes int
	// Mode for the proposed system (default PolicyQLearning).
	Mode PolicyMode
	// Backend selects the empirical-mode inference backend (default
	// BackendPlan); surrogate runs ignore it.
	Backend InferBackend
}

// RunProposed runs the paper's proposed runtime on the scenario — with
// annealed-exploration Q-learning warmup when the mode calls for it — and
// returns the measured report. It is the single-system building block the
// experiment engine (internal/exper) schedules; CompareSystems wraps it
// with the three baselines. Cancellation is cooperative: the context is
// checked between training episodes, so an abort never tears a simulated
// episode in half (episodes that do run are bit-identical to an
// uncancelled run).
func RunProposed(ctx context.Context, sc *Scenario, d *Deployed, cfg CompareConfig) (*metrics.Report, error) {
	if cfg.WarmupEpisodes == 0 {
		cfg.WarmupEpisodes = 12
	}
	rt, err := NewRuntime(d, RuntimeConfig{
		Mode:    cfg.Mode,
		Device:  sc.Device,
		Storage: sc.Storage,
		Seed:    sc.Seed,
		Backend: cfg.Backend,
		TestSet: sc.TestSet,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Mode == PolicyQLearning {
		for ep := 0; ep < cfg.WarmupEpisodes; ep++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			// Annealed exploration: broad early, nearly greedy late.
			rt.SetExploration(0.3*float64(cfg.WarmupEpisodes-ep)/float64(cfg.WarmupEpisodes) + 0.01)
			if _, err := rt.Run(sc.Trace, sc.Schedule); err != nil {
				return nil, err
			}
		}
		rt.SetExploration(0.02)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return rt.Run(sc.Trace, sc.Schedule)
}

// CompareSystems runs the proposed system and the three baselines on the
// scenario — the data behind Fig. 5 and the §V-D latency comparison.
// Row order: ours, SonicNet, SpArSeNet, LeNet-Cifar. The context is
// checked between systems (and between the proposed system's training
// episodes); on cancellation the row set so far is discarded and ctx.Err()
// returned.
func CompareSystems(ctx context.Context, sc *Scenario, d *Deployed, cfg CompareConfig) ([]SystemRow, error) {
	ourReport, err := RunProposed(ctx, sc, d, cfg)
	if err != nil {
		return nil, err
	}
	ourRow := ReportRow(ourReport)
	ourRow.System = "Our Approach"
	rows, err := BaselineRows(ctx, sc)
	if err != nil {
		return nil, err
	}
	return append([]SystemRow{ourRow}, rows...), nil
}

// BaselineRows runs SonicNet, SpArSeNet and LeNet-Cifar, in that order,
// on the scenario's trace, schedule, device and storage, with their
// correctness draws seeded by sc.Seed. They read nothing of a
// deployment or an exit policy. The context is checked before each
// baseline.
func BaselineRows(ctx context.Context, sc *Scenario) ([]SystemRow, error) {
	all := baselines.All()
	rows := make([]SystemRow, 0, len(all))
	for _, b := range all {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rep, err := RunBaseline(b, sc.Trace, sc.Schedule, BaselineConfig{
			Device:  sc.Device,
			Storage: sc.Storage,
			Seed:    sc.Seed,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, ReportRow(rep))
	}
	return rows, nil
}

// LearningCurve runs the Fig. 7a experiment: per-episode average accuracy
// (over all events) for the Q-learning runtime and the static LUT. The
// context is checked between episodes; on cancellation the curves built so
// far are returned alongside ctx.Err().
func LearningCurve(ctx context.Context, sc *Scenario, d *Deployed, episodes int) (qcurve, staticCurve []float64, err error) {
	qrt, err := NewRuntime(d, RuntimeConfig{
		Mode: PolicyQLearning, Device: sc.Device, Storage: sc.Storage, Seed: sc.Seed, TestSet: sc.TestSet,
	})
	if err != nil {
		return nil, nil, err
	}
	srt, err := NewRuntime(d, RuntimeConfig{
		Mode: PolicyStaticLUT, Device: sc.Device, Storage: sc.Storage, Seed: sc.Seed, TestSet: sc.TestSet,
	})
	if err != nil {
		return nil, nil, err
	}
	for ep := 0; ep < episodes; ep++ {
		if err := ctx.Err(); err != nil {
			return qcurve, staticCurve, err
		}
		// Annealed exploration reproduces Fig. 7a's rising curve: early
		// episodes pay an exploration cost, later ones exploit.
		qrt.SetExploration(0.3*float64(episodes-ep)/float64(episodes) + 0.01)
		qr, err := qrt.Run(sc.Trace, sc.Schedule)
		if err != nil {
			return nil, nil, err
		}
		sr, err := srt.Run(sc.Trace, sc.Schedule)
		if err != nil {
			return nil, nil, err
		}
		qcurve = append(qcurve, qr.AccuracyAllEvents())
		staticCurve = append(staticCurve, sr.AccuracyAllEvents())
	}
	return qcurve, staticCurve, nil
}

// ExitUsage runs the Fig. 7b experiment: exit-usage histograms (counts of
// processed events per exit) for trained Q-learning vs the static LUT.
// The context is checked between warm-up episodes.
func ExitUsage(ctx context.Context, sc *Scenario, d *Deployed, warmup int) (qhist, shist []int, qproc, sproc int, err error) {
	qrt, err := NewRuntime(d, RuntimeConfig{
		Mode: PolicyQLearning, Device: sc.Device, Storage: sc.Storage, Seed: sc.Seed, TestSet: sc.TestSet,
	})
	if err != nil {
		return nil, nil, 0, 0, err
	}
	for ep := 0; ep < warmup; ep++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, 0, 0, err
		}
		qrt.SetExploration(0.3*float64(warmup-ep)/float64(warmup) + 0.01)
		if _, err := qrt.Run(sc.Trace, sc.Schedule); err != nil {
			return nil, nil, 0, 0, err
		}
	}
	qrt.SetExploration(0.02)
	qr, err := qrt.Run(sc.Trace, sc.Schedule)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	srt, err := NewRuntime(d, RuntimeConfig{
		Mode: PolicyStaticLUT, Device: sc.Device, Storage: sc.Storage, Seed: sc.Seed, TestSet: sc.TestSet,
	})
	if err != nil {
		return nil, nil, 0, 0, err
	}
	sr, err := srt.Run(sc.Trace, sc.Schedule)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	return qr.ExitHistogram(), sr.ExitHistogram(), qr.ProcessedCount(), sr.ProcessedCount(), nil
}

// Fig1bRow is one group of the compression-accuracy comparison.
type Fig1bRow struct {
	Scheme   string
	ExitAccs []float64
}

// Fig1b computes the full-precision / uniform / nonuniform per-exit
// accuracies with the calibrated surrogate.
func Fig1b() ([]Fig1bRow, error) {
	net := multiexit.LeNetEE(nil)
	sur, err := accmodel.New(net, nil)
	if err != nil {
		return nil, err
	}
	rows := []Fig1bRow{
		{Scheme: "Full-precision", ExitAccs: sur.ExitAccuracies(compress.FullPrecision(net))},
		{Scheme: "Uniform compression", ExitAccs: sur.ExitAccuracies(compress.Fig1bUniform(net))},
		{Scheme: "Nonuniform compression", ExitAccs: sur.ExitAccuracies(compress.Fig1bNonuniform())},
	}
	return rows, nil
}

// Fig6Row is one bar group of the FLOPs comparison.
type Fig6Row struct {
	Name        string
	BeforeFLOPs int64
	AfterFLOPs  int64
}

// Fig6 computes per-exit FLOPs before/after the given compression policy
// plus the baseline FLOPs.
func Fig6(policy *compress.Policy) ([]Fig6Row, error) {
	before := multiexit.LeNetEE(nil)
	after := multiexit.LeNetEE(tensor.NewRNG(7))
	if err := compress.Apply(after, policy); err != nil {
		return nil, err
	}
	var rows []Fig6Row
	for i := 0; i < before.NumExits(); i++ {
		rows = append(rows, Fig6Row{
			Name:        fmt.Sprintf("Exit%d", i+1),
			BeforeFLOPs: before.ExitFLOPs(i),
			AfterFLOPs:  after.ExitFLOPs(i),
		})
	}
	for _, b := range baselines.All() {
		rows = append(rows, Fig6Row{Name: b.Name, BeforeFLOPs: b.FLOPs, AfterFLOPs: b.FLOPs})
	}
	return rows, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
