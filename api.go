package ehinfer

import (
	"context"
	"fmt"

	"repro/internal/accmodel"
	"repro/internal/baselines"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/exper"
	"repro/internal/fleet"
	"repro/internal/mcu"
	"repro/internal/metrics"
	"repro/internal/multiexit"
	"repro/internal/qlearn"
	"repro/internal/search"
	"repro/internal/tensor"
)

// Re-exported types: the nouns of the system. Aliases keep the façade
// thin — the internal packages hold the documentation and behaviour.
type (
	// Tensor is the dense float32 tensor used throughout.
	Tensor = tensor.Tensor
	// RNG is the deterministic random generator all components share.
	RNG = tensor.RNG

	// Network is a multi-exit neural network.
	Network = multiexit.Network
	// InferenceState is a suspended (resumable) inference.
	InferenceState = multiexit.State
	// TrainConfig controls joint multi-exit training.
	TrainConfig = multiexit.TrainConfig

	// Policy is a per-layer compression policy.
	Policy = compress.Policy
	// LayerPolicy is one layer's compression decision.
	LayerPolicy = compress.LayerPolicy
	// Surrogate predicts per-exit accuracy for a policy.
	Surrogate = accmodel.Surrogate

	// SearchConfig parameterizes the DDPG compression search.
	SearchConfig = search.Config
	// SearchResult is the search outcome.
	SearchResult = search.Result

	// Trace is a harvesting power profile.
	Trace = energy.Trace
	// Storage is the capacitor energy buffer.
	Storage = energy.Storage
	// Schedule is a time-ordered event set.
	Schedule = energy.Schedule
	// Event is one sensing trigger.
	Event = energy.Event
	// SolarConfig parameterizes synthetic solar traces.
	SolarConfig = energy.SolarConfig
	// KineticConfig parameterizes synthetic kinetic traces.
	KineticConfig = energy.KineticConfig

	// Device is the MCU cost model.
	Device = mcu.Device

	// Deployed is a compressed network ready for the runtime.
	Deployed = core.Deployed
	// Runtime executes event schedules on the intermittent device.
	Runtime = core.Runtime
	// RuntimeConfig parameterizes the runtime.
	RuntimeConfig = core.RuntimeConfig
	// Scenario is the shared experimental setup.
	Scenario = core.Scenario
	// CompareConfig tweaks the system comparison.
	CompareConfig = core.CompareConfig
	// SystemRow is one comparison line (Fig. 5 / §V-D).
	SystemRow = core.SystemRow
	// PolicyMode selects Q-learning vs static-LUT exit selection.
	PolicyMode = core.PolicyMode
	// InferBackend selects the empirical-mode inference backend:
	// the compiled float plan (default) or the int8 integer pipeline.
	InferBackend = core.InferBackend

	// Report aggregates simulation outcomes (IEpmJ, accuracy, latency).
	Report = metrics.Report
	// EventOutcome records one event's handling.
	EventOutcome = metrics.EventOutcome

	// Baseline describes one comparison system.
	Baseline = baselines.Baseline

	// Dataset is an in-memory labelled image set.
	Dataset = dataset.Set
	// SynthConfig parameterizes the SynthCIFAR generator.
	SynthConfig = dataset.SynthConfig

	// ExitAgent is the runtime exit-selection Q-learner.
	ExitAgent = qlearn.ExitAgent
	// IncrementalAgent is the continue/stop Q-learner.
	IncrementalAgent = qlearn.IncrementalAgent
)

// Experiment-engine re-exports: declarative scenario grids executed on a
// deterministic goroutine worker pool (see internal/exper for the
// worker/determinism contract).
type (
	// ExperimentGrid is a declarative cross product of scenario axes.
	ExperimentGrid = exper.Grid
	// ExperimentResult is the outcome of one grid point.
	ExperimentResult = exper.Result
	// GridResult is a completed grid run with aggregation and JSON output.
	GridResult = exper.GridResult
	// AggRow is one across-seed aggregate of a (scenario, system) pair.
	AggRow = exper.AggRow
	// TraceSpec declaratively describes an energy-trace axis value.
	TraceSpec = exper.TraceSpec
	// DeviceSpec names an MCU axis value.
	DeviceSpec = exper.DeviceSpec
	// PolicySpec names a compression-policy axis value.
	PolicySpec = exper.PolicySpec
	// ExitSpec names a runtime exit-policy axis value.
	ExitSpec = exper.ExitSpec
	// StorageSpec names a capacitor axis value.
	StorageSpec = exper.StorageSpec
	// GridSpec is the fully-declarative (JSON-serializable) grid used by
	// the ehserved HTTP API; device and policy axes are registry names.
	GridSpec = exper.GridSpec
)

// Fleet-simulator re-exports: populations of 10⁴–10⁶ simulated
// intermittent devices sharded across workers with packed per-device RL
// state (see internal/fleet for the arena/determinism contract).
type (
	// FleetSpec is the declarative (JSON-serializable) description of a
	// fleet run, the fleet twin of GridSpec.
	FleetSpec = fleet.Spec
	// FleetPopulation describes one homogeneous device population.
	FleetPopulation = fleet.PopulationSpec
	// FleetChurn is one deterministic churn/failure-injection rule.
	FleetChurn = fleet.ChurnSpec
	// Fleet is a compiled, runnable fleet.
	Fleet = fleet.Fleet
	// FleetSnapshot is one periodic aggregate of a running fleet.
	FleetSnapshot = fleet.Snapshot
	// FleetPopSnapshot is one population's slice of a snapshot.
	FleetPopSnapshot = fleet.PopSnapshot
	// FleetResult is a completed fleet run.
	FleetResult = fleet.Result
)

// PaperCompareGrid is the Fig. 5 / §V-D setup as a one-point grid.
func PaperCompareGrid(seed uint64, warmup int, mode PolicyMode) *ExperimentGrid {
	return exper.PaperCompareGrid(seed, warmup, mode)
}

// PaperSweepGrid is the harvesting-peak × capacitor design-space grid.
func PaperSweepGrid(peaksMW, capsMJ []float64, seeds, events int) *ExperimentGrid {
	return exper.PaperSweepGrid(peaksMW, capsMJ, seeds, events)
}

// FleetGrid crosses three MCU classes with solar and kinetic harvesting
// and both runtime policies.
func FleetGrid(seeds []uint64, events int) *ExperimentGrid {
	return exper.FleetGrid(seeds, events)
}

// SeedReplicationGrid replicates the paper's default scenario over n
// seeds.
func SeedReplicationGrid(n, events int) *ExperimentGrid {
	return exper.SeedReplicationGrid(n, events)
}

// Runtime policy modes.
const (
	PolicyQLearning = core.PolicyQLearning
	PolicyStaticLUT = core.PolicyStaticLUT
)

// Inference backends. The zero value BackendDefault means "no explicit
// choice" and resolves to BackendPlan: a compiled zero-allocation
// inference plan whose float32 output is bit-identical to the layer
// walk. BackendInt8Fast runs the integer pipeline the MCU executes
// (int8 weights packed once for the host's GEMM kernel, uint8
// activations, int32 accumulators, fixed-point requantization): the
// fastest backend, its logits a deterministic function of weights and
// input, holding statistical (per-exit accuracy) rather than bitwise
// parity with the float plan.
const (
	BackendDefault  = core.BackendDefault
	BackendPlan     = core.BackendPlan
	BackendInt8Fast = core.BackendInt8Fast
)

// ParseBackend resolves a backend name ("plan" or its aliases "float32"
// and "legacy", "int8fast" or its alias "int8"); "" yields
// BackendDefault.
func ParseBackend(name string) (InferBackend, error) { return core.ParseBackend(name) }

// BackendNames lists the canonical inference-backend names.
func BackendNames() []string { return core.BackendNames() }

// Paper constants.
const (
	// PaperFTargetFLOPs is the §V FLOPs constraint (1.15 MFLOPs).
	PaperFTargetFLOPs = compress.PaperFTargetFLOPs
	// PaperSTargetBytes is the §V weight-size constraint (16 KB).
	PaperSTargetBytes = compress.PaperSTargetBytes
)

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed uint64) *RNG { return tensor.NewRNG(seed) }

// FromImageData wraps a CHW float32 pixel slice (3×32×32 = 3072 values in
// [0, 1]) as an image tensor suitable for Network.InferTo. A slice of
// any other length is rejected with an error naming the expected shape
// (it used to panic deep inside the tensor layer).
func FromImageData(data []float32) (*Tensor, error) {
	want := dataset.Channels * dataset.Height * dataset.Width
	if len(data) != want {
		return nil, fmt.Errorf("ehinfer: image data has %d values, want %d (%d×%d×%d CHW)",
			len(data), want, dataset.Channels, dataset.Height, dataset.Width)
	}
	return tensor.FromSlice(data, dataset.Channels, dataset.Height, dataset.Width), nil
}

// LeNetEE builds the paper's multi-exit LeNet (four conv layers, two
// early exits) for 32×32×3 inputs. Pass nil to skip weight init.
func LeNetEE(rng *RNG) *Network { return multiexit.LeNetEE(rng) }

// NetworkBuilder constructs custom multi-exit architectures; see
// multiexit.Builder for the fluent API.
type NetworkBuilder = multiexit.Builder

// NewNetworkBuilder starts a builder for inC×inH×inW inputs.
func NewNetworkBuilder(inC, inH, inW, classes int) *NetworkBuilder {
	return multiexit.NewBuilder(inC, inH, inW, classes)
}

// TrainNetwork jointly trains all exits on a dataset.
func TrainNetwork(net *Network, train *Dataset, cfg TrainConfig) (float64, error) {
	return multiexit.Train(net, train, cfg)
}

// EvalExits returns per-exit accuracy on a dataset.
func EvalExits(net *Network, set *Dataset) []float64 {
	return multiexit.EvalExits(net, set)
}

// SynthCIFAR generates disjoint train/test SynthCIFAR sets.
func SynthCIFAR(cfg SynthConfig, trainN, testN int) (train, test *Dataset) {
	return dataset.TrainTest(cfg, trainN, testN)
}

// NewSurrogate builds the calibrated accuracy surrogate for a network
// (nil accuracies select the paper's anchors for 3-exit networks).
func NewSurrogate(net *Network, fullAcc []float64) (*Surrogate, error) {
	return accmodel.New(net, fullAcc)
}

// ApplyPolicy compresses a network in place (prune + quantize).
func ApplyPolicy(net *Network, p *Policy) error { return compress.Apply(net, p) }

// UniformPolicy builds a same-everywhere compression policy.
func UniformPolicy(net *Network, preserve float64, weightBits, actBits int) *Policy {
	return compress.Uniform(net, preserve, weightBits, actBits)
}

// FullPrecision builds the identity (no-compression) policy.
func FullPrecision(net *Network) *Policy { return compress.FullPrecision(net) }

// Fig1bUniform returns the uniform reference policy of Fig. 1b.
func Fig1bUniform(net *Network) *Policy { return compress.Fig1bUniform(net) }

// Fig1bNonuniform returns the nonuniform reference policy of Fig. 1b.
func Fig1bNonuniform() *Policy { return compress.Fig1bNonuniform() }

// SyntheticSolarTrace generates a diurnal solar harvesting trace.
func SyntheticSolarTrace(cfg SolarConfig) *Trace { return energy.SyntheticSolarTrace(cfg) }

// SyntheticKineticTrace generates a bursty kinetic harvesting trace.
func SyntheticKineticTrace(cfg KineticConfig) *Trace { return energy.SyntheticKineticTrace(cfg) }

// UniformSchedule draws n events uniformly over the trace duration.
func UniformSchedule(n, duration, classes int, seed uint64) *Schedule {
	return energy.UniformSchedule(n, duration, classes, seed)
}

// BurstySchedule draws events in activity bursts.
func BurstySchedule(n, duration, classes int, meanBurst float64, seed uint64) *Schedule {
	return energy.BurstySchedule(n, duration, classes, meanBurst, seed)
}

// MSP432 returns the paper's target device model.
func MSP432() *Device { return mcu.MSP432() }

// DefaultScenario returns the paper's §V experimental setup.
func DefaultScenario(seed uint64) *Scenario { return core.DefaultScenario(seed) }

// BuildDeployed compresses LeNet-EE with a policy and packages it with
// surrogate accuracies for the runtime.
func BuildDeployed(policy *Policy, seed uint64) (*Deployed, error) {
	return core.BuildDeployed(policy, seed)
}

// NewDeployed packages an already-compressed network with known per-exit
// accuracies.
func NewDeployed(net *Network, exitAccs []float64) (*Deployed, error) {
	return core.NewDeployed(net, exitAccs)
}

// NewRuntime builds the intermittent-inference runtime for a deployment.
func NewRuntime(d *Deployed, cfg RuntimeConfig) (*Runtime, error) {
	return core.NewRuntime(d, cfg)
}

// RunProposed runs the paper's proposed runtime alone (no baselines) on
// a scenario — the single-system building block behind
// Session.CompareSystems and the experiment engine. It is the natural
// way to exercise a deployment restored from an artifact
// (Session.Deploy): the scenario's TestSet switches it to empirical
// mode where the network actually executes on cfg.Backend.
func RunProposed(ctx context.Context, sc *Scenario, d *Deployed, cfg CompareConfig) (*Report, error) {
	return core.RunProposed(ctx, sc, d, cfg)
}

// AllBaselines returns SonicNet, SpArSeNet, and LeNet-Cifar.
func AllBaselines() []Baseline { return baselines.All() }

// RunBaseline simulates a single-exit baseline on a scenario's trace and
// schedule.
func RunBaseline(b Baseline, sc *Scenario, seed uint64) (*Report, error) {
	return core.RunBaseline(b, sc.Trace, sc.Schedule, core.BaselineConfig{
		Device:  sc.Device,
		Storage: sc.Storage,
		Seed:    seed,
	})
}
