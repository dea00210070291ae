package core

import (
	"fmt"
	"sync"

	"repro/internal/plan"
	"repro/internal/tensor"
)

// InferBackend selects how empirical-mode inference executes. Surrogate
// runs never execute the network, so the backend only matters when a
// RuntimeConfig carries a TestSet.
type InferBackend int

const (
	// BackendDefault (the zero value) means "no explicit choice": it
	// resolves to BackendPlan unless an outer default — a Session's
	// WithBackend or an engine's Backend field — overrides it. Keeping
	// the unset state distinct from BackendPlan lets an explicit plan
	// request win over such defaults.
	BackendDefault InferBackend = iota
	// BackendPlan runs the compiled zero-allocation inference plan
	// (internal/plan). Output is bit-identical to the layer walk
	// (multiexit.Network.InferTo/Resume), the reference the parity
	// tests check it against. "float32" and "legacy" name it too.
	BackendPlan
	// BackendInt8Fast runs the integer pipeline (plan.CompileInt8Fast):
	// int8 weights pre-packed for the host's GEMM kernel, uint8
	// activations, int32 accumulators and a fused fixed-point
	// requantization — the arithmetic a real MCU executes, with batched
	// serving lanes. Its logits are a deterministic function of weights
	// and input; against the float backend it holds a statistical parity
	// contract (per-exit accuracy within ε), and it is the fastest
	// backend. "int8" names it too.
	BackendInt8Fast
)

func (b InferBackend) String() string {
	switch b {
	case BackendDefault:
		return "default"
	case BackendPlan:
		return "plan"
	case BackendInt8Fast:
		return "int8fast"
	default:
		return fmt.Sprintf("InferBackend(%d)", int(b))
	}
}

// Resolve maps BackendDefault to the concrete default (BackendPlan);
// explicit choices pass through.
func (b InferBackend) Resolve() InferBackend {
	if b == BackendDefault {
		return BackendPlan
	}
	return b
}

// ParseBackend resolves a backend name: "" → BackendDefault, "plan" (or
// its aliases "float32" and "legacy") → BackendPlan, and "int8fast" (or
// its alias "int8") → BackendInt8Fast.
func ParseBackend(name string) (InferBackend, error) {
	switch name {
	case "":
		return BackendDefault, nil
	case "plan", "float32", "legacy":
		return BackendPlan, nil
	case "int8fast", "int8":
		return BackendInt8Fast, nil
	default:
		return 0, fmt.Errorf("core: unknown inference backend %q (known: %v)", name, BackendNames())
	}
}

// BackendNames lists the canonical backend names a declarative spec may
// use.
func BackendNames() []string { return []string{"int8fast", "plan"} }

// planCache lazily compiles the deployment's float32 inference plan.
// It lives on the Deployed, which the experiment engine's DeployCache
// shares across grid runs — so plans are compiled once per (deployment
// key, geometry), alongside the deployment itself. The runtime's int8
// plan is deliberately not cached here: its lowering is calibrated on
// the runtime's own test samples, so each Runtime compiles its own (the
// compile is milliseconds against a multi-second simulation).
type planCache struct {
	once sync.Once
	p    *plan.Plan
	err  error
}

// FloatPlan returns the deployment's compiled float32 plan, compiling it
// on first use. An error means the architecture cannot be compiled, and
// so cannot run empirically or be served.
func (d *Deployed) FloatPlan() (*plan.Plan, error) {
	d.planc.once.Do(func() {
		geom, err := plan.InferGeometry(d.Net)
		if err != nil {
			d.planc.err = err
			return
		}
		d.planc.p, d.planc.err = plan.Compile(d.Net, geom)
	})
	return d.planc.p, d.planc.err
}

// Int8FastPlanPinned returns the deployment's int8 plan compiled from
// its pinned calibration scales (or the lowering's static default
// ceiling when none are bound), compiling on first use and cached like
// FloatPlan. This is the serving path's int8 entry point: unlike the
// runtime, which calibrates on its own test samples per simulation, an
// online server has no calibration set — it runs the artifact exactly
// as packaged.
func (d *Deployed) Int8FastPlanPinned() (*plan.Plan, error) {
	d.planc8f.once.Do(func() {
		d.planc8f.p, d.planc8f.err = d.int8Plan(nil)
	})
	return d.planc8f.p, d.planc8f.err
}

// int8Plan compiles the deployment's int8 plan. Explicit calibration
// images win; otherwise scales pinned by BindInt8Calibration (or an
// artifact load) apply; with neither, the lowering uses its static
// default ceiling.
func (d *Deployed) int8Plan(calibration []*tensor.Tensor) (*plan.Plan, error) {
	geom, err := plan.InferGeometry(d.Net)
	if err != nil {
		return nil, err
	}
	cfg := plan.Int8Config{Calibration: calibration}
	if len(calibration) == 0 {
		cfg.Scales = d.Int8Calibration
	}
	return plan.CompileInt8Fast(d.Net, geom, cfg)
}

// BindInt8Calibration runs the calibration pass over the given images
// and pins the resulting int8 requantization scales on the deployment.
// Pinned scales are what SaveDeployed persists, so a restored artifact
// quantizes exactly like the deployment it was saved from — no
// calibration images needed at load time.
func (d *Deployed) BindInt8Calibration(images []*tensor.Tensor) {
	d.Int8Calibration = plan.Calibrate(d.Net, images)
}
