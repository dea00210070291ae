package ehinfer

import (
	"context"
	"errors"
	"iter"

	"repro/internal/core"
	"repro/internal/exper"
	"repro/internal/fleet"
	"repro/internal/search"
	"repro/internal/tensor"
)

var (
	errNilGrid  = errors.New("ehinfer: nil grid")
	errNilFleet = errors.New("ehinfer: nil fleet")
)

// Session is the stateful entry point of the public API: it owns the
// shared state that every long-running caller used to re-plumb by hand —
// the worker cap, the base seed all RNG streams derive from, the keyed
// deployment cache that stops repeated grids from rebuilding identical
// Deployed models, and the progress callback. A Session is cheap; create
// one per logical workload (a service typically keeps one for its whole
// lifetime). All methods are safe for concurrent use and every
// long-running method takes a context.Context for cancellation and
// deadlines — cancellation is cooperative (checked between grid points
// and training episodes) and never perturbs results that do complete.
type Session struct {
	workers  int
	seed     uint64
	backend  InferBackend
	cache    *exper.DeployCache
	progress func(ExperimentResult)

	// models caches per-deployment serving executors for Infer/InferBatch.
	models inferModels
}

// SessionOption configures a Session at construction.
type SessionOption func(*Session)

// WithWorkers caps the worker pool for grid runs (<= 0, the default,
// means one worker per core; negative values behave like 0).
func WithWorkers(n int) SessionOption {
	return func(s *Session) { s.workers = n }
}

// WithSeed sets the session's base seed (default 42). Session-derived
// RNGs and session-default scenarios flow from it; grids keep their own
// BaseSeed so a serialized grid replays identically in any session.
func WithSeed(seed uint64) SessionOption {
	return func(s *Session) { s.seed = seed }
}

// WithDeployedCache enables or disables the session's deployment cache
// (default enabled). With the cache on, repeated grids that share a
// (policy name, deploy seed) pair reuse one read-only Deployed model
// instead of rebuilding it per run.
func WithDeployedCache(enabled bool) SessionOption {
	return func(s *Session) {
		if enabled {
			if s.cache == nil {
				s.cache = exper.NewDeployCache()
			}
		} else {
			s.cache = nil
		}
	}
}

// WithBackend sets the session's default inference backend for
// empirical-mode runs and Infer (unset resolves to BackendPlan, the
// compiled zero-allocation plan that is bit-identical to the layer
// walk; BackendInt8Fast selects the integer pipeline — fastest,
// statistically rather than bitwise faithful to the float plan).
// Grids or CompareConfigs that name their own Backend override it, and
// surrogate-mode runs — which never execute the network — ignore it
// entirely.
func WithBackend(b InferBackend) SessionOption {
	return func(s *Session) { s.backend = b }
}

// WithProgress registers a callback observing every completed grid point,
// across all of the session's grid runs. It may be called from any worker
// goroutine but never concurrently; completion order is scheduling-
// dependent, so treat it as progress telemetry only.
func WithProgress(fn func(ExperimentResult)) SessionOption {
	return func(s *Session) { s.progress = fn }
}

// NewSession builds a session with the given options.
func NewSession(opts ...SessionOption) *Session {
	s := &Session{seed: 42, cache: exper.NewDeployCache()}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Workers returns the resolved worker-pool cap for this session's grid
// runs.
func (s *Session) Workers() int { return s.engine().WorkerCount() }

// Seed returns the session's base seed.
func (s *Session) Seed() uint64 { return s.seed }

// CacheSize reports how many deployments the session's cache holds
// (0 when caching is disabled).
func (s *Session) CacheSize() int {
	if s.cache == nil {
		return 0
	}
	return s.cache.Len()
}

// NewRNG returns a deterministic generator for the given stream,
// derived from the session seed with the engine's stream-separation mix:
// distinct streams are statistically independent, and the same (session
// seed, stream) pair always yields the same generator.
func (s *Session) NewRNG(stream uint64) *RNG {
	return tensor.NewRNG(exper.DeriveSeed(s.seed, stream, 0))
}

// Scenario returns the paper's §V experimental setup seeded from the
// session.
func (s *Session) Scenario() *Scenario { return core.DefaultScenario(s.seed) }

// BuildDeployed compresses LeNet-EE with a policy and packages it with
// surrogate accuracies for the runtime, seeded from the session.
func (s *Session) BuildDeployed(policy *Policy) (*Deployed, error) {
	return core.BuildDeployed(policy, s.seed)
}

// Backend returns the session's default inference backend.
func (s *Session) Backend() InferBackend { return s.backend }

// engine builds a fresh engine carrying the session's shared state. The
// engine itself is stateless across runs; the cache is the shared part.
func (s *Session) engine() *exper.Engine {
	e := exper.NewEngine(s.workers)
	e.Cache = s.cache
	e.Backend = s.backend
	return e
}

// RunGrid executes every point of the grid on the session's worker pool
// and returns the collected results in enumeration order. Results are
// bit-identical at any worker count and identical to the free-standing
// engine path — the session adds cancellation, caching, and progress, not
// semantics.
//
// On cancellation RunGrid returns ctx.Err() together with a non-nil
// GridResult: completed points keep their rows (bit-identical to an
// uncancelled run), unreached points are marked Skipped.
func (s *Session) RunGrid(ctx context.Context, g *ExperimentGrid) (*GridResult, error) {
	if g == nil {
		return nil, errNilGrid
	}
	e := s.engine()
	e.OnResult = s.progress
	return e.RunContext(ctx, g)
}

// StartGrid launches the grid without waiting for it: the returned
// GridRun streams per-point results as workers finish them, enabling
// incremental reporting while the grid is still running. Always drain
// Results (or call Wait) to observe completion.
func (s *Session) StartGrid(ctx context.Context, g *ExperimentGrid) *GridRun {
	return s.startGrid(ctx, g, nil)
}

// ResumeGrid is StartGrid for a checkpointed run: completed maps point
// index to its already-finished result. Restored points are filled into
// the final GridResult verbatim and never re-run or re-streamed; only
// the remaining points execute. Because each point's RNG, and its
// replicate's trace, schedule and baseline rows, derive from the grid's
// seeds alone, the final result is byte-identical to an uninterrupted
// run's.
func (s *Session) ResumeGrid(ctx context.Context, g *ExperimentGrid, completed map[int]ExperimentResult) *GridRun {
	return s.startGrid(ctx, g, completed)
}

func (s *Session) startGrid(ctx context.Context, g *ExperimentGrid, completed map[int]ExperimentResult) *GridRun {
	if g == nil {
		r := &GridRun{ch: make(chan ExperimentResult), done: make(chan struct{})}
		r.err = errNilGrid
		close(r.ch)
		close(r.done)
		return r
	}
	// Buffering to the grid size lets the engine finish even if the
	// consumer abandons the stream after Wait.
	r := &GridRun{ch: make(chan ExperimentResult, g.Size()), done: make(chan struct{})}
	e := s.engine()
	e.Completed = completed
	progress := s.progress
	e.OnResult = func(res ExperimentResult) {
		if progress != nil {
			progress(res)
		}
		r.ch <- res
	}
	go func() {
		defer close(r.done)
		defer close(r.ch)
		r.res, r.err = e.RunContext(ctx, g)
	}()
	return r
}

// GridRun is an in-flight grid launched by Session.StartGrid: a stream of
// per-point results plus the final aggregate. One consumer should range
// over Results; any number may call Wait.
type GridRun struct {
	ch   chan ExperimentResult
	done chan struct{}
	res  *GridResult
	err  error
}

// Results returns a single-use iterator over per-point results in
// completion order (scheduling-dependent; each point's content is still
// deterministic). The sequence ends when the run finishes or is canceled;
// breaking out early is safe and does not block the run.
func (r *GridRun) Results() iter.Seq[ExperimentResult] {
	return func(yield func(ExperimentResult) bool) {
		for res := range r.ch {
			if !yield(res) {
				return
			}
		}
	}
}

// Wait blocks until the run finishes and returns the final GridResult in
// enumeration order — the same value a direct RunGrid call would have
// returned, streaming notwithstanding.
func (r *GridRun) Wait() (*GridResult, error) {
	<-r.done
	return r.res, r.err
}

// RunFleet runs a compiled fleet to completion on the session's worker
// cap and returns its result. Fleet results are bit-identical at any
// worker count; on cancellation the snapshots completed so far are
// returned alongside ctx.Err().
func (s *Session) RunFleet(ctx context.Context, f *Fleet) (*FleetResult, error) {
	if f == nil {
		return nil, errNilFleet
	}
	e := fleet.Engine{Workers: s.workers}
	return e.Run(ctx, f)
}

// StartFleet launches the fleet without waiting for it: the returned
// FleetRun streams aggregate snapshots as epochs complete. Always drain
// Snapshots (or call Wait) to observe completion.
func (s *Session) StartFleet(ctx context.Context, f *Fleet) *FleetRun {
	return s.startFleet(ctx, f, 0)
}

// ResumeFleet is StartFleet for a checkpointed run: the engine fast-
// forwards deterministically through the epochs before fromEpoch and
// streams only the snapshots from it on. The final result still holds
// every snapshot — byte-identical to an uninterrupted run's.
func (s *Session) ResumeFleet(ctx context.Context, f *Fleet, fromEpoch int) *FleetRun {
	return s.startFleet(ctx, f, fromEpoch)
}

func (s *Session) startFleet(ctx context.Context, f *Fleet, fromEpoch int) *FleetRun {
	if f == nil {
		r := &FleetRun{ch: make(chan FleetSnapshot), done: make(chan struct{})}
		r.err = errNilFleet
		close(r.ch)
		close(r.done)
		return r
	}
	// Buffering to the snapshot count lets the engine finish even if the
	// consumer abandons the stream after Wait.
	r := &FleetRun{ch: make(chan FleetSnapshot, f.SnapshotCount()), done: make(chan struct{})}
	e := fleet.Engine{
		Workers:    s.workers,
		StartEpoch: fromEpoch,
		OnSnapshot: func(snap FleetSnapshot) { r.ch <- snap },
	}
	go func() {
		defer close(r.done)
		defer close(r.ch)
		r.res, r.err = e.Run(ctx, f)
	}()
	return r
}

// FleetRun is an in-flight fleet launched by Session.StartFleet: a
// stream of epoch-ordered aggregate snapshots plus the final result.
// One consumer should range over Snapshots; any number may call Wait.
type FleetRun struct {
	ch   chan FleetSnapshot
	done chan struct{}
	res  *FleetResult
	err  error
}

// Snapshots returns a single-use iterator over the run's snapshots in
// epoch order. The sequence ends when the run finishes or is canceled;
// breaking out early is safe and does not block the run.
func (r *FleetRun) Snapshots() iter.Seq[FleetSnapshot] {
	return func(yield func(FleetSnapshot) bool) {
		for snap := range r.ch {
			if !yield(snap) {
				return
			}
		}
	}
}

// Wait blocks until the run finishes and returns the final FleetResult —
// the same value a direct RunFleet call would have returned.
func (r *FleetRun) Wait() (*FleetResult, error) {
	<-r.done
	return r.res, r.err
}

// RunProposed runs the proposed runtime alone on a scenario, honouring
// ctx between training episodes. The session's backend applies when the
// config leaves its Backend unset, exactly as in CompareSystems.
func (s *Session) RunProposed(ctx context.Context, sc *Scenario, d *Deployed, cfg CompareConfig) (*Report, error) {
	if cfg.Backend == core.BackendDefault {
		cfg.Backend = s.backend
	}
	return core.RunProposed(ctx, sc, d, cfg)
}

// CompareSystems runs ours plus the three baselines on a scenario,
// honouring ctx between systems and training episodes. The session's
// backend applies when the config leaves its Backend unset
// (BackendDefault); an explicit choice — including BackendPlan — wins.
func (s *Session) CompareSystems(ctx context.Context, sc *Scenario, d *Deployed, cfg CompareConfig) ([]SystemRow, error) {
	if cfg.Backend == core.BackendDefault {
		cfg.Backend = s.backend
	}
	return core.CompareSystems(ctx, sc, d, cfg)
}

// LearningCurve runs the Fig. 7a runtime-adaptation experiment,
// honouring ctx between episodes; on cancellation the curves built so far
// are returned alongside ctx.Err().
func (s *Session) LearningCurve(ctx context.Context, sc *Scenario, d *Deployed, episodes int) (qcurve, staticCurve []float64, err error) {
	return core.LearningCurve(ctx, sc, d, episodes)
}

// ExitUsage runs the Fig. 7b exit-histogram experiment, honouring ctx
// between warm-up episodes.
func (s *Session) ExitUsage(ctx context.Context, sc *Scenario, d *Deployed, warmup int) (qhist, shist []int, qproc, sproc int, err error) {
	return core.ExitUsage(ctx, sc, d, warmup)
}

// SearchCompression runs the paper's dual-agent DDPG compression search,
// honouring ctx between episodes; on cancellation the best-so-far result
// is returned alongside ctx.Err().
func (s *Session) SearchCompression(ctx context.Context, net *Network, sur *Surrogate, cfg SearchConfig) (*SearchResult, error) {
	return search.RL(ctx, net, sur, cfg)
}

// SearchCompressionRandom is the random-search ablation baseline with
// session cancellation semantics.
func (s *Session) SearchCompressionRandom(ctx context.Context, net *Network, sur *Surrogate, cfg SearchConfig) (*SearchResult, error) {
	return search.Random(ctx, net, sur, cfg)
}

// SearchCompressionAnnealing is the simulated-annealing ablation with
// session cancellation semantics.
func (s *Session) SearchCompressionAnnealing(ctx context.Context, net *Network, sur *Surrogate, cfg SearchConfig) (*SearchResult, error) {
	return search.Annealing(ctx, net, sur, cfg)
}
