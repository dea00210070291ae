package exper

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
)

// Result is the outcome of one grid point: the proposed system's row
// first, then (when Grid.Baselines is set) SonicNet, SpArSeNet, and
// LeNet-Cifar. A point that fails records Err and carries no rows; one
// bad point never aborts the rest of the grid.
type Result struct {
	Point Point            `json:"point"`
	Rows  []core.SystemRow `json:"rows,omitempty"`
	Err   string           `json:"err,omitempty"`
	// Skipped marks a point that never ran because the grid was canceled
	// before a worker reached it. Skipped points carry Err = ErrSkipped
	// and are excluded from aggregation like any other failed point.
	Skipped bool `json:"skipped,omitempty"`
}

// ErrSkipped is the Err string recorded on points a canceled run never
// reached.
const ErrSkipped = "exper: point skipped (grid canceled)"

// Engine shards a grid's points across a goroutine worker pool. The zero
// value is ready to use and runs on GOMAXPROCS workers.
type Engine struct {
	// Workers caps the pool size (<= 0 means GOMAXPROCS). WorkerCount is
	// the single place the cap is resolved; NewEngine clamps negative
	// values, so a Workers set directly to a negative number behaves like
	// zero too.
	Workers int
	// Cache, when set, memoizes policy deployments across grid runs
	// keyed by (policy name, deploy seed), so repeated grids stop
	// rebuilding identical Deployed models. Deployments are read-only
	// during simulation, which is what makes sharing them safe.
	Cache *DeployCache
	// OnResult, when set, observes each completed point. It may be called
	// from any worker but never concurrently; point completion order is
	// scheduling-dependent, so treat it as progress telemetry only.
	OnResult func(Result)
	// Backend is the default empirical-mode inference backend for grids
	// that do not name one themselves (zero value: the compiled plan).
	Backend core.InferBackend
	// Completed injects already-finished results by point index before
	// the run starts: those slots are filled verbatim, never re-run, and
	// never reported through OnResult. This is the resume path for a
	// checkpointed grid — because every point's streams and trace derive
	// from the grid's seeds alone, a run resumed this way produces a
	// GridResult byte-identical to one that was never interrupted.
	Completed map[int]Result
}

// NewEngine returns an engine with the given worker cap. Negative caps
// are clamped to 0 (= one worker per core); this is the one place the
// user-facing worker knob is validated.
func NewEngine(workers int) *Engine {
	if workers < 0 {
		workers = 0
	}
	return &Engine{Workers: workers}
}

// WorkerCount returns the effective pool size for this engine.
func (e *Engine) WorkerCount() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes every point of the grid with no cancellation deadline; it
// is RunContext with a background context.
//
// Deprecated: use RunContext so callers can cancel long sweeps; Run
// exists for pre-context call sites and mints an uncancellable root.
func (e *Engine) Run(g *Grid) (*GridResult, error) {
	return e.RunContext(context.Background(), g)
}

// RunContext executes every point of the grid and returns the collected
// results in enumeration order. Each point derives its own RNG streams
// from (BaseSeed, Index, Seed), runs on its replicate's read-only trace
// (see Point.TraceSeed) and shares no mutable state with its siblings,
// so the returned GridResult is byte-identical for any worker count.
//
// Cancellation is cooperative and preserves partial results: the context
// is checked between grid points (and, inside a point, between training
// episodes). A context that is already dead before the run starts
// returns (nil, ctx.Err()). Once started, cancellation returns ctx.Err()
// together with a non-nil GridResult in which every completed point
// keeps its rows and every unreached point is marked Skipped. Points
// that did complete are bit-identical to the ones an uncancelled run
// produces.
func (e *Engine) RunContext(ctx context.Context, g *Grid) (*GridResult, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	points := g.Points()
	results := make([]Result, len(points))
	ran := make([]bool, len(points))
	for i, r := range e.Completed {
		if i < 0 || i >= len(points) {
			return nil, fmt.Errorf("exper: completed index %d outside grid of %d points", i, len(points))
		}
		results[i] = r
		ran[i] = true
	}

	// One registry lookup for the whole run: Validate vetted the name,
	// and the write-once registries cannot lose it afterwards.
	schedule, err := LookupSchedule(g.Schedule)
	if err != nil {
		return nil, err
	}

	start := time.Now()

	// Build each policy's deployment once, up front (or fetch it from the
	// engine's cross-run cache). Deployments are read-only during
	// surrogate-mode simulation (events carry no samples, so the network
	// never runs), which makes sharing one copy across all workers both
	// safe and the paper-faithful semantics: one deployed model, many
	// conditions. A failed build is recorded and charged to every point
	// using that policy.
	// A resumed run only needs deployments for policies, and traces for
	// replicates, that still have pending points; on a fresh run every
	// one is pending.
	pending := make(map[string]bool, len(g.Policies))
	npending := 0
	reps := make([]*replicate, len(g.Traces)*len(g.Seeds))
	for i, p := range points {
		if ran[i] {
			continue
		}
		pending[p.Policy.Name] = true
		npending++
		ri := g.replicateOf(i)
		if reps[ri] == nil {
			reps[ri] = &replicate{spec: p.Trace, seed: p.TraceSeed}
		}
		reps[ri].pending.Add(1)
	}
	deps := make(map[string]*core.Deployed, len(g.Policies))
	depErrs := make(map[string]string, len(g.Policies))
	for i, ps := range g.Policies {
		if !pending[ps.Name] {
			continue
		}
		if ctx.Err() != nil {
			// Canceled mid-build: the run has started, so keep the
			// documented shape — every point skipped, error alongside.
			break
		}
		d, errMsg := e.buildDeployed(ps, g.DeploySeedFor(i))
		if errMsg != "" {
			depErrs[ps.Name] = errMsg
			continue
		}
		deps[ps.Name] = d
	}
	nw := e.WorkerCount()
	if nw > npending {
		nw = npending
	}

	var notify func(Result)
	if e.OnResult != nil {
		var mu sync.Mutex
		notify = func(r Result) {
			mu.Lock()
			e.OnResult(r)
			mu.Unlock()
		}
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(nw)
	for w := 0; w < nw; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				// Results land at the point's own slot, so collection
				// order is deterministic even though completion order
				// is not.
				ran[i] = true
				rep := reps[g.replicateOf(i)]
				if ctx.Err() != nil {
					// A job handed over in the same instant the context
					// died: skip it rather than start a doomed point.
					results[i] = Result{Point: points[i], Err: ErrSkipped, Skipped: true}
					rep.release()
					continue
				}
				if msg, bad := depErrs[points[i].Policy.Name]; bad {
					results[i] = Result{Point: points[i], Err: msg}
				} else if trace, msg := rep.get(); msg != "" {
					results[i] = Result{Point: points[i], Err: msg}
				} else {
					results[i] = runPoint(ctx, g, points[i], trace, deps[points[i].Policy.Name], e.Backend, schedule)
				}
				rep.release()
				if notify != nil {
					notify(results[i])
				}
			}
		}()
	}
	// The jobs channel is unbuffered, so a cancelled context stops new
	// points from starting as soon as every in-flight point returns.
feed:
	for i := range points {
		if ran[i] {
			continue // restored from a checkpoint; never re-run
		}
		if ctx.Err() != nil {
			break feed
		}
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	gr := &GridResult{
		Grid:    g,
		Results: results,
		Workers: nw,
		Elapsed: time.Since(start),
	}
	if err := ctx.Err(); err != nil {
		for i := range results {
			if !ran[i] {
				results[i] = Result{Point: points[i], Err: ErrSkipped, Skipped: true}
			}
		}
		return gr, err
	}
	return gr, nil
}

// replicate is one (trace-axis position, Seeds position) pair: the
// trace all its points share. The first worker that needs the trace
// builds it; the last pending point releases it, so memory holds the
// traces in flight, not one per replicate. energy.Trace has no lazy
// state, so concurrent readers are safe.
type replicate struct {
	spec TraceSpec
	seed uint64 // Point.TraceSeed

	once  sync.Once
	trace *energy.Trace
	err   string // a failed build fails every point of the replicate

	pending atomic.Int64 // points still to run
}

// get returns the replicate's trace, building it on first use.
func (r *replicate) get() (*energy.Trace, string) {
	r.once.Do(func() {
		tr, err := r.spec.Build(r.seed)
		switch {
		case err != nil:
			r.err = err.Error()
		case tr.Duration() == 0:
			r.err = fmt.Sprintf("exper: trace %q is empty", r.spec.Name)
		default:
			r.trace = tr
		}
	})
	return r.trace, r.err
}

// release drops one pending point's hold on the trace. Every get
// happens before its caller's release, so once the count reaches zero
// nothing reads the trace again.
func (r *replicate) release() {
	if r.pending.Add(-1) == 0 {
		r.trace = nil
	}
}

// buildDeployed resolves one policy's shared deployment, through the
// cache when the engine has one. Pre-built deployment axis values
// (PolicyFromDeployed) bypass both the build and the cache — they are
// already the shared read-only object.
func (e *Engine) buildDeployed(ps PolicySpec, seed uint64) (*core.Deployed, string) {
	if ps.Deployed != nil {
		if d := ps.Deployed(); d != nil {
			return d, ""
		}
		return nil, fmt.Sprintf("exper: policy %q returned a nil deployment", ps.Name)
	}
	if e.Cache != nil {
		return e.Cache.getOrBuild(ps.Name, seed, ps.Build)
	}
	d, err := core.BuildDeployed(ps.Build(), seed)
	if err != nil {
		return nil, err.Error()
	}
	return d, ""
}

// runPoint simulates one scenario on its replicate's trace. Everything
// the simulation mutates — schedule, device, storage, runtime — is
// constructed locally from the point's derived seed; the trace and the
// deployment are shared read-only (the deployment is built fresh when
// deployed is nil). The grid's named backend wins over the engine
// default.
func runPoint(ctx context.Context, g *Grid, p Point, trace *energy.Trace, deployed *core.Deployed, defaultBackend core.InferBackend, schedule ScheduleBuilder) Result {
	res := Result{Point: p}
	store := p.Storage.Storage // copy; simulations mutate the charge state
	sc := &core.Scenario{
		Trace:    trace,
		Schedule: schedule(g.events(), trace.Duration(), g.classes(), p.RunSeed),
		Device:   p.Device.Build(),
		Storage:  &store,
		Seed:     p.RunSeed,
	}
	if deployed == nil {
		// Direct runPoint use outside RunContext's hoisted-deployment
		// path: resolve exactly like Engine.buildDeployed, including the
		// nil-deployment error.
		if p.Policy.Deployed != nil {
			if deployed = p.Policy.Deployed(); deployed == nil {
				res.Err = fmt.Sprintf("exper: policy %q returned a nil deployment", p.Policy.Name)
				return res
			}
		} else {
			d, err := core.BuildDeployed(p.Policy.Build(), p.DeploySeed)
			if err != nil {
				res.Err = err.Error()
				return res
			}
			deployed = d
		}
	}
	backend := defaultBackend
	if g.Backend != "" {
		// Validate() vetted the name; a malformed grid that skipped
		// validation falls back to the default backend.
		if b, err := core.ParseBackend(g.Backend); err == nil {
			backend = b
		}
	}
	cfg := core.CompareConfig{Mode: p.Exit.Mode, WarmupEpisodes: p.Exit.Warmup, Backend: backend}

	if g.Baselines {
		rows, err := core.CompareSystems(ctx, sc, deployed, cfg)
		if err != nil {
			res.Err = err.Error()
			return res
		}
		res.Rows = rows
		return res
	}
	rep, err := core.RunProposed(ctx, sc, deployed, cfg)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	row := core.ReportRow(rep)
	row.System = "Our Approach"
	res.Rows = []core.SystemRow{row}
	return res
}
