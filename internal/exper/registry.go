package exper

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/mcu"
	"repro/internal/multiexit"
)

// The axis registries map the names a declarative GridSpec may use to
// the Go constructors behind them. They ship pre-populated with the
// paper's built-in axes and are open: RegisterDevice, RegisterPolicy,
// RegisterTrace, RegisterSchedule, and RegisterDeployment add
// user-defined axis values at runtime, after which any GridSpec —
// including one submitted over the ehserved HTTP API — can reference
// them by name.
//
// All registry access is guarded by one RWMutex, so registrations may
// race grid resolution and /v1/registry listings safely. Names are
// write-once: registering a duplicate (including a built-in) is an
// error, because a name that silently changed meaning would break the
// "same spec ⇒ same results" contract grids are built on.
var (
	regMu sync.RWMutex

	// deviceRegistry maps the MCU names a declarative spec may use.
	deviceRegistry = map[string]func() *mcu.Device{
		"MSP432":       mcu.MSP432,
		"MSP430FR5994": mcu.MSP430FR5994,
		"ApolloM4":     mcu.ApolloM4,
	}

	// policyRegistry maps the compression-policy names a declarative
	// spec may use. Policies that are defined relative to an
	// architecture are anchored to the paper's LeNet-EE, which is what
	// every policy-built grid deploys.
	policyRegistry = map[string]func() *compress.Policy{
		"nonuniform": compress.Fig1bNonuniform,
		"fig1b-uniform": func() *compress.Policy {
			return compress.Fig1bUniform(multiexit.LeNetEE(nil))
		},
		"full-precision": func() *compress.Policy {
			return compress.FullPrecision(multiexit.LeNetEE(nil))
		},
		"uniform-half-8bit": func() *compress.Policy {
			return compress.Uniform(multiexit.LeNetEE(nil), 0.5, 8, 8)
		},
	}

	// traceRegistry maps named trace builders usable via TraceSpec kind
	// "registered". The builder receives the replicate's seed
	// (Point.ReplicateSeed).
	traceRegistry = map[string]TraceBuilder{
		"paper-solar": func(seed uint64) (*energy.Trace, error) {
			return energy.SyntheticSolarTrace(energy.SolarConfig{
				Seconds: 21600, PeakPower: 0.032, Seed: seed,
			}), nil
		},
		"paper-kinetic": func(seed uint64) (*energy.Trace, error) {
			return energy.SyntheticKineticTrace(energy.KineticConfig{
				Seconds: 21600, BurstPower: 0.9, Seed: seed,
			}), nil
		},
	}

	// scheduleRegistry maps the event-schedule generators a Grid's
	// Schedule field may name ("" selects "uniform").
	scheduleRegistry = map[string]ScheduleBuilder{
		"uniform": func(n, duration, classes int, seed uint64) *energy.Schedule {
			return energy.UniformSchedule(n, duration, classes, seed)
		},
		"bursty": func(n, duration, classes int, seed uint64) *energy.Schedule {
			return energy.BurstySchedule(n, duration, classes, 4, seed)
		},
	}

	// deployRegistry maps names to pre-built deployments (typically
	// loaded from artifacts). LookupPolicy falls back to it, so a
	// registered deployment is usable anywhere a policy name is.
	deployRegistry = map[string]*core.Deployed{}
)

// TraceBuilder materializes a registered trace axis value from the grid
// replicate's seed (Point.ReplicateSeed). A grid calls it once per
// replicate, and every point of the replicate runs on the trace.
// Builders must be deterministic in the seed and safe for concurrent
// use.
type TraceBuilder func(seed uint64) (*energy.Trace, error)

// ScheduleBuilder generates an event schedule. A grid calls it once per
// replicate, with the replicate's trace duration and seed
// (Point.ReplicateSeed), and every point of the replicate, baselines
// included, runs on the schedule. Builders must be deterministic in
// their arguments and safe for concurrent use.
type ScheduleBuilder func(events, durationSeconds, classes int, seed uint64) *energy.Schedule

func register[V any](m map[string]V, kind, name string, v V, zero func(V) bool) error {
	if name == "" {
		return fmt.Errorf("exper: %s registration needs a name", kind)
	}
	if zero(v) {
		return fmt.Errorf("exper: %s %q registration is nil", kind, name)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := m[name]; dup {
		return fmt.Errorf("exper: %s %q is already registered", kind, name)
	}
	m[name] = v
	return nil
}

// RegisterDevice adds an MCU model under the given name. The constructor
// runs once per grid point, so concurrent points never share a Device.
func RegisterDevice(name string, build func() *mcu.Device) error {
	return register(deviceRegistry, "device", name, build, func(f func() *mcu.Device) bool { return f == nil })
}

// RegisterPolicy adds a compression policy under the given name. The
// constructor must return equivalent policies on every call — the name
// keys the engine's deployment cache. Policies and deployments resolve
// through the same LookupPolicy namespace, so a name may live in only
// one of the two registries.
func RegisterPolicy(name string, build func() *compress.Policy) error {
	if name == "" {
		return fmt.Errorf("exper: policy registration needs a name")
	}
	if build == nil {
		return fmt.Errorf("exper: policy %q registration is nil", name)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := policyRegistry[name]; dup {
		return fmt.Errorf("exper: policy %q is already registered", name)
	}
	if _, dup := deployRegistry[name]; dup {
		return fmt.Errorf("exper: policy %q is already registered as a deployment", name)
	}
	policyRegistry[name] = build
	return nil
}

// RegisterTrace adds a named trace builder, referenced by a TraceSpec
// with Kind "registered".
func RegisterTrace(name string, build TraceBuilder) error {
	return register(traceRegistry, "trace", name, build, func(f TraceBuilder) bool { return f == nil })
}

// RegisterSchedule adds a named event-schedule generator, referenced by
// a Grid's (or GridSpec's) Schedule field.
func RegisterSchedule(name string, build ScheduleBuilder) error {
	return register(scheduleRegistry, "schedule", name, build, func(f ScheduleBuilder) bool { return f == nil })
}

// RegisterDeployment adds a pre-built deployment (e.g. one loaded from
// a saved artifact) under the given name. The deployment is shared
// read-only across all grid points that name it, like any cached
// deployment. Deployments and policies resolve through the same
// LookupPolicy namespace, so a name may live in only one of the two
// registries.
func RegisterDeployment(name string, d *core.Deployed) error {
	if name == "" {
		return fmt.Errorf("exper: deployment registration needs a name")
	}
	if d == nil {
		return fmt.Errorf("exper: deployment %q registration is nil", name)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := deployRegistry[name]; dup {
		return fmt.Errorf("exper: deployment %q is already registered", name)
	}
	if _, dup := policyRegistry[name]; dup {
		return fmt.Errorf("exper: deployment %q is already registered as a policy", name)
	}
	deployRegistry[name] = d
	return nil
}

// LookupDevice resolves a registry device name to an axis value.
func LookupDevice(name string) (DeviceSpec, error) {
	regMu.RLock()
	build, ok := deviceRegistry[name]
	regMu.RUnlock()
	if !ok {
		return DeviceSpec{}, fmt.Errorf("exper: unknown device %q (known: %v)", name, DeviceNames())
	}
	return Device(name, build), nil
}

// LookupPolicy resolves a registry policy name to an axis value. Names
// registered as deployments resolve to pre-built deployment axis values.
func LookupPolicy(name string) (PolicySpec, error) {
	regMu.RLock()
	build, ok := policyRegistry[name]
	dep, depOK := deployRegistry[name]
	regMu.RUnlock()
	if ok {
		return Policy(name, build), nil
	}
	if depOK {
		return PolicyFromDeployed(name, dep), nil
	}
	return PolicySpec{}, fmt.Errorf("exper: unknown policy %q (known policies: %v, deployments: %v)",
		name, PolicyNames(), DeploymentNames())
}

// LookupTrace resolves a registered trace name.
func LookupTrace(name string) (TraceBuilder, error) {
	regMu.RLock()
	build, ok := traceRegistry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("exper: unknown registered trace %q (known: %v)", name, TraceNames())
	}
	return build, nil
}

// LookupSchedule resolves a schedule-generator name; "" selects
// "uniform".
func LookupSchedule(name string) (ScheduleBuilder, error) {
	if name == "" {
		name = "uniform"
	}
	regMu.RLock()
	build, ok := scheduleRegistry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("exper: unknown schedule %q (known: %v)", name, ScheduleNames())
	}
	return build, nil
}

// LookupDeployment resolves a registered deployment name.
func LookupDeployment(name string) (*core.Deployed, error) {
	regMu.RLock()
	d, ok := deployRegistry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("exper: unknown deployment %q (known: %v)", name, DeploymentNames())
	}
	return d, nil
}

// DeviceNames lists the registry device names, sorted.
func DeviceNames() []string { return sortedKeys(deviceRegistry) }

// PolicyNames lists the registry policy names, sorted.
func PolicyNames() []string { return sortedKeys(policyRegistry) }

// TraceNames lists the registered trace names, sorted.
func TraceNames() []string { return sortedKeys(traceRegistry) }

// ScheduleNames lists the registered schedule-generator names, sorted.
func ScheduleNames() []string { return sortedKeys(scheduleRegistry) }

// DeploymentNames lists the registered deployment names, sorted.
func DeploymentNames() []string { return sortedKeys(deployRegistry) }

// BackendNames lists the canonical inference-backend names a declarative
// spec may use, sorted; the aliases "float32" and "int8" are accepted
// too.
func BackendNames() []string { return core.BackendNames() }

func sortedKeys[V any](m map[string]V) []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
