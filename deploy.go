package ehinfer

import (
	"fmt"
	"io"

	"repro/internal/artifact"
	"repro/internal/energy"
	"repro/internal/exper"
)

// DeploymentBundle is a versioned, self-describing deployment artifact:
// the unit of the paper's "compress once, flash once, run intermittently
// forever" workflow. It round-trips a Deployed end to end — architecture,
// compressed weights, per-exit accuracies, pinned int8 calibration
// scales, default backend — plus the compression policy it was built
// with. A loaded bundle produces bit-identical episode reports to the
// in-process deployment it was saved from.
type DeploymentBundle = artifact.Bundle

// ArtifactFormatVersion is the artifact wire-format version this build
// writes and reads. Decoding any other version is a strict error; see
// internal/artifact for the format and version policy.
const ArtifactFormatVersion = artifact.FormatVersion

// ArtifactOption customizes SaveDeployed.
type ArtifactOption func(*DeploymentBundle)

// WithArtifactName labels the artifact (shown by tools and the ehserved
// artifact listing).
func WithArtifactName(name string) ArtifactOption {
	return func(b *DeploymentBundle) { b.Name = name }
}

// WithArtifactPolicy records the compression policy the deployment was
// built with — provenance that also lets the artifact's policy be
// reapplied elsewhere.
func WithArtifactPolicy(p *Policy) ArtifactOption {
	return func(b *DeploymentBundle) { b.Policy = p }
}

// SaveDeployed writes the deployment to path as a versioned artifact.
// Everything the runtime consumes travels with it: set the deployment's
// DefaultBackend and pinned int8 calibration (Deployed.BindInt8Calibration)
// before saving to make the artifact self-sufficient on every backend.
func SaveDeployed(path string, d *Deployed, opts ...ArtifactOption) error {
	b := &DeploymentBundle{Deployed: d}
	for _, o := range opts {
		o(b)
	}
	return artifact.WriteFile(path, b)
}

// LoadDeployed reads a deployment artifact from path. Decoding is
// strict: unknown format versions, truncated tensor sections, shape
// mismatches, and trailing bytes are errors, never best-effort repairs.
func LoadDeployed(path string) (*DeploymentBundle, error) {
	return artifact.ReadFile(path)
}

// EncodeDeployed writes a bundle to a stream (the form the ehserved
// artifact endpoints speak); SaveDeployed is the file-path convenience.
func EncodeDeployed(w io.Writer, b *DeploymentBundle) error {
	return artifact.Encode(w, b)
}

// DecodeDeployed reads a bundle from a stream with the same strict
// error contract as LoadDeployed.
func DecodeDeployed(r io.Reader) (*DeploymentBundle, error) {
	return artifact.Decode(r)
}

// Deploy loads a deployment artifact and returns its Deployed, ready
// for NewRuntime, CompareSystems, or a grid via PolicyFromDeployed /
// RegisterDeployment. The artifact's default backend rides along on the
// Deployed and applies whenever neither the caller nor the session
// names one.
func (s *Session) Deploy(path string) (*Deployed, error) {
	b, err := LoadDeployed(path)
	if err != nil {
		return nil, err
	}
	return b.Deployed, nil
}

// PolicyFromDeployed wraps a pre-built deployment (e.g. a loaded
// artifact) as a grid policy-axis value under the given name.
func PolicyFromDeployed(name string, d *Deployed) PolicySpec {
	return exper.PolicyFromDeployed(name, d)
}

// PolicyFromArtifactFile loads a deployment artifact and wraps it as a
// grid policy-axis value named "artifact:<bundle name>" — the one-call
// path the CLI tools' -deployed flags use. The returned spec's Name is
// also the human-readable label to report.
func PolicyFromArtifactFile(path string) (PolicySpec, error) {
	bundle, err := LoadDeployed(path)
	if err != nil {
		return PolicySpec{}, err
	}
	name := bundle.Name
	if name == "" {
		name = "artifact"
	}
	return PolicyFromDeployed("artifact:"+name, bundle.Deployed), nil
}

// The open axis registries: every name a declarative GridSpec may
// reference — devices, compression policies, traces, event schedules,
// and pre-built deployments — resolves against a process-wide registry
// that ships with the paper's built-ins and accepts user registrations
// at runtime. Registration is concurrency-safe (an RWMutex guards every
// registry) and write-once: duplicate names are rejected so a spec can
// never silently change meaning. ehserved's /v1/registry reflects the
// live contents.

// TraceBuilder materializes a registered trace from a grid replicate's
// seed (Point.ReplicateSeed), once per replicate; see RegisterTrace.
type TraceBuilder = exper.TraceBuilder

// ScheduleBuilder generates a grid replicate's event schedule; see
// RegisterSchedule.
type ScheduleBuilder = exper.ScheduleBuilder

// RegisterDevice adds an MCU model usable by name in grid specs.
func RegisterDevice(name string, build func() *Device) error {
	return exper.RegisterDevice(name, build)
}

// RegisterPolicy adds a compression policy usable by name in grid
// specs. The constructor must be pure: the name keys the deployment
// cache.
func RegisterPolicy(name string, build func() *Policy) error {
	return exper.RegisterPolicy(name, build)
}

// RegisterTrace adds a named trace builder, referenced by a TraceSpec
// of kind "registered". TraceFromCSV adapts a measured CSV trace file.
func RegisterTrace(name string, build TraceBuilder) error {
	return exper.RegisterTrace(name, build)
}

// RegisterSchedule adds a named event-schedule generator, referenced by
// a grid's Schedule field.
func RegisterSchedule(name string, build ScheduleBuilder) error {
	return exper.RegisterSchedule(name, build)
}

// RegisterDeployment publishes a pre-built deployment (typically a
// loaded artifact) under a name any grid spec can use as a policy axis
// value.
func RegisterDeployment(name string, d *Deployed) error {
	return exper.RegisterDeployment(name, d)
}

// RegisteredTrace references a trace registered under name as a grid
// axis value.
func RegisteredTrace(name string) TraceSpec { return exper.RegisteredTrace(name) }

// TraceFromCSV returns a RegisterTrace-compatible builder backed by a
// CSV trace file (as written by cmd/tracegen or energy.WriteTraceCSV).
// The file is parsed once and cached; the seed is ignored.
func TraceFromCSV(path string) TraceBuilder { return energy.TraceFromCSV(path) }

// DeployAndRegister is the one-call path from artifact file to grid
// axis: load, validate, and register under the given name.
func (s *Session) DeployAndRegister(name, path string) (*Deployed, error) {
	d, err := s.Deploy(path)
	if err != nil {
		return nil, err
	}
	if err := RegisterDeployment(name, d); err != nil {
		return nil, fmt.Errorf("ehinfer: %w", err)
	}
	return d, nil
}
