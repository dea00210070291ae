package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	ehinfer "repro"
	"repro/internal/batch"
	"repro/internal/chaos"
	"repro/internal/exper"
	"repro/internal/obs"
	"repro/internal/store"
)

// maxSpecBytes bounds a submitted grid or fleet spec; real specs are a
// few KB.
const maxSpecBytes = 1 << 20

// Artifact-store bounds: uploads are whole deployment bundles held in
// memory (raw bytes for bit-identical download plus the decoded
// deployment), so both the count and the per-upload size are capped.
const (
	maxArtifacts     = 64
	maxArtifactBytes = 64 << 20
)

// artifactPrefix turns an uploaded artifact id into the policy-axis
// name a GridSpec uses to reference it.
const artifactPrefix = "artifact:"

// storedArtifact is one uploaded deployment bundle.
type storedArtifact struct {
	id     string
	name   string
	data   []byte // exact uploaded bytes; served back verbatim
	bundle *ehinfer.DeploymentBundle
}

// Server is the HTTP/JSON serving daemon: grid execution, fleet
// simulation, artifact storage, and micro-batched online inference,
// behind one middleware
// chain (panic recovery → request id → structured logging → metrics →
// per-client rate limiting → routing). All grids run on one shared
// Session, so they share its worker cap and deployment cache.
//
// Routes (the routes method holds the live table):
//
//	POST   /v1/grids            submit a GridSpec; 202 + job id
//	POST   /v1/grids?stream=1   submit and stream NDJSON results on the
//	                            request itself (client disconnect cancels
//	                            the run)
//	GET    /v1/grids            list jobs
//	GET    /v1/grids/{id}       status + progress
//	GET    /v1/grids/{id}/results            final aggregated JSON
//	GET    /v1/grids/{id}/results?format=ndjson  follow per-point results
//	DELETE /v1/grids/{id}       cancel a running job
//	POST   /v1/fleets           submit a fleet.Spec; 202 + job id
//	POST   /v1/fleets?stream=1  submit and stream NDJSON epoch snapshots
//	GET    /v1/fleets           list fleet jobs
//	GET    /v1/fleets/{id}      status + progress
//	GET    /v1/fleets/{id}/results           final aggregated JSON
//	GET    /v1/fleets/{id}/results?format=ndjson  follow snapshots live
//	DELETE /v1/fleets/{id}      cancel a running fleet
//	GET    /v1/jobs             unified grid+fleet job listing
//	POST   /v1/infer            online inference against an artifact or
//	                            registered deployment (micro-batched)
//	POST   /v1/artifacts        upload a deployment artifact; 201 + id
//	GET    /v1/artifacts        list uploaded artifacts
//	GET    /v1/artifacts/{id}   download an artifact
//	DELETE /v1/artifacts/{id}   delete an artifact
//	GET    /v1/registry         registered names of every axis kind
//	GET    /metrics             Prometheus text exposition
//	GET    /healthz             liveness
//	GET    /readyz              readiness (503 once draining)
//	GET    /debug/pprof/...     profiling, only with WithPprof(true)
type Server struct {
	session *ehinfer.Session
	mux     *http.ServeMux
	handler http.Handler // mux wrapped in the middleware chain
	started time.Time

	// Observability and admission control, assembled by New.
	reg       *obs.Registry
	log       *slog.Logger
	clock     func() time.Time
	limiter   *limiter
	rateRPS   float64
	rateBurst int
	pprofOn   bool
	ready     atomic.Bool

	// Robustness wiring (all optional): the durable artifact/job store, a
	// deterministic fault injector, per-request deadlines, the overload
	// shedder, and per-model circuit-breaker tuning.
	store        *store.Store
	inj          *chaos.Injector
	reqTimeout   time.Duration
	shed         *shedder
	brkThreshold int
	brkCooldown  time.Duration

	// drainMu guards drainReason: the first caller to start a drain wins
	// the reason string /readyz reports.
	drainMu     sync.Mutex
	drainReason string

	// batchCfg tunes the per-model micro-batching queues behind
	// /v1/infer; infers holds them, created lazily per referenced
	// model. Their counters live in reg, keyed by model, and outlive
	// queue teardown — the /metrics counters stay monotonic that way.
	batchCfg batch.Config
	infers   map[string]*inferTarget

	// baseCtx parents every async job; Shutdown cancels it.
	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*job // every retained job, grid or fleet, by id
	grids  *jobKind
	fleets *jobKind
	closed bool

	artifacts map[string]*storedArtifact
	artOrder  []string // upload order, for listing
	nextArtID int
}

// Option customizes a Server at construction.
type Option func(*Server)

// WithSession sets the Session grids and inference execute on (default:
// a fresh ehinfer.NewSession()).
func WithSession(session *ehinfer.Session) Option {
	return func(sv *Server) { sv.session = session }
}

// WithBatchConfig tunes the micro-batching queues behind /v1/infer
// (zero fields keep the batch package defaults).
func WithBatchConfig(cfg batch.Config) Option {
	return func(sv *Server) { sv.batchCfg = cfg }
}

// WithRateLimit enables per-client token-bucket admission control on
// the /v1/* routes: each client (X-Client-ID header, else remote host)
// may sustain rps requests/second with bursts up to burst. Over-budget
// requests are shed 429 + Retry-After before any work is admitted —
// a layer above the queue-cap backpressure, which still guards the
// inference queues themselves. rps <= 0 (the default) disables it.
func WithRateLimit(rps float64, burst int) Option {
	return func(sv *Server) { sv.rateRPS, sv.rateBurst = rps, burst }
}

// WithLogger routes the structured request log and error reports
// (slog). The default logger discards everything — the library stays
// quiet unless the operator wires a sink.
func WithLogger(l *slog.Logger) Option {
	return func(sv *Server) {
		if l != nil {
			sv.log = l
		}
	}
}

// WithClock substitutes the rate limiter's time source — tests drive
// refill deterministically with a fake clock.
func WithClock(now func() time.Time) Option {
	return func(sv *Server) {
		if now != nil {
			sv.clock = now
		}
	}
}

// WithPprof mounts net/http/pprof under /debug/pprof/ (off by
// default: profiling endpoints are for operators who asked for them).
func WithPprof(enabled bool) Option {
	return func(sv *Server) { sv.pprofOn = enabled }
}

// WithStore attaches a durable store: artifacts persist across restarts
// under their original IDs, jobs checkpoint every grid point or fleet
// snapshot, and New replays the data directory — finished jobs serve
// their final documents again, unfinished ones resume where the journal
// stops.
func WithStore(st *store.Store) Option {
	return func(sv *Server) { sv.store = st }
}

// WithChaos arms the deterministic fault injector on the HTTP layer
// ("http.<path>" sites) and the batch dispatch path ("batch.dispatch").
// A nil injector (the default) injects nothing at zero cost. Injected
// faults are counted on ehserved_chaos_injected_total.
func WithChaos(in *chaos.Injector) Option {
	return func(sv *Server) { sv.inj = in }
}

// WithRequestTimeout bounds every non-streaming /v1/* request: past d
// the request context expires and the handler unwinds through the usual
// cancellation paths (503). d <= 0 (the default) disables it.
func WithRequestTimeout(d time.Duration) Option {
	return func(sv *Server) { sv.reqTimeout = d }
}

// WithLoadShed enables the overload gate on /v1/* routes: more than
// maxInflight concurrent requests, or an EWMA request latency above
// watermark, answers 503 + Retry-After instead of queueing toward
// collapse. Zero disables each knob independently.
func WithLoadShed(maxInflight int, watermark time.Duration) Option {
	return func(sv *Server) {
		if maxInflight > 0 || watermark > 0 {
			sv.shed = &shedder{maxInflight: int64(maxInflight), watermark: watermark}
		}
	}
}

// WithBreaker arms a per-model circuit breaker on /v1/infer: threshold
// consecutive execution failures (ErrInferenceFailed) open the circuit
// for cooldown, during which requests shed 503 + Retry-After; then one
// probe request decides whether it closes again. threshold <= 0 (the
// default) disables it; cooldown <= 0 defaults to 10s.
func WithBreaker(threshold int, cooldown time.Duration) Option {
	return func(sv *Server) { sv.brkThreshold, sv.brkCooldown = threshold, cooldown }
}

// New builds the server. With no options it executes on a default
// session with default batching, no rate limit, a discarding logger,
// and no pprof.
func New(opts ...Option) *Server {
	//ehlint:allow ctxbg — New is the server's lifecycle root; Shutdown cancels it
	ctx, cancel := context.WithCancel(context.Background())
	sv := &Server{
		started:   time.Now(),
		reg:       obs.NewRegistry(),
		log:       slog.New(slog.DiscardHandler),
		clock:     time.Now,
		baseCtx:   ctx,
		stop:      cancel,
		jobs:      make(map[string]*job),
		grids:     gridKind(),
		fleets:    fleetKind(),
		artifacts: make(map[string]*storedArtifact),
		infers:    make(map[string]*inferTarget),
	}
	for _, o := range opts {
		o(sv)
	}
	if sv.session == nil {
		sv.session = ehinfer.NewSession()
	}
	if sv.rateRPS > 0 {
		sv.limiter = newLimiter(sv.rateRPS, sv.rateBurst, sv.clock)
	}
	if sv.inj != nil {
		sv.inj.OnFault = func(site string, kind chaos.Kind) {
			sv.reg.Counter(obs.Metric(mChaosInjected, "site", site, "kind", string(kind))).Inc()
		}
	}
	sv.ready.Store(true)
	sv.initMetrics()
	if sv.store != nil {
		// Replay the data directory before the listener exists: restored
		// artifacts serve under their old IDs, journaled jobs resume.
		sv.recoverFromStore()
	}

	sv.mux = http.NewServeMux()
	for _, rt := range sv.routes() {
		sv.mux.Handle(rt.method+" "+rt.pattern, withRoute(rt.pattern, rt.handler))
	}
	sv.handler = Chain(sv.mux,
		sv.recoverMW,   // outermost: panics below become logged 500s
		sv.requestIDMW, // id before logging so the log line carries it
		sv.loggingMW,
		sv.metricsMW,   // counts everything below, sheds and timeouts included
		sv.deadlineMW,  // per-request deadline on non-streaming /v1/*
		sv.shedMW,      // overload gate: cheap 503s beat queueing collapse
		sv.rateLimitMW, // per-client admission control just above routing
		sv.chaosMW,     // innermost injection point: sheds are never chaos-faulted
	)
	return sv
}

// route is one row of the explicit route table.
type route struct {
	method  string
	pattern string
	handler http.HandlerFunc
}

// routes is the server's full route table — the single place paths map
// to handlers, and the source of the per-route metric labels.
func (sv *Server) routes() []route {
	var rts []route
	for _, k := range sv.kinds() {
		p := "/v1/" + k.name + "s"
		rts = append(rts,
			route{"POST", p, sv.handleSubmit(k)},
			route{"GET", p, sv.handleList(k)},
			route{"GET", p + "/{id}", sv.handleStatus(k)},
			route{"GET", p + "/{id}/results", sv.handleResults(k)},
			route{"DELETE", p + "/{id}", sv.handleCancel(k)},
		)
	}
	rts = append(rts, []route{
		{"GET", "/v1/jobs", sv.handleJobs},
		{"POST", "/v1/infer", sv.handleInfer},
		{"POST", "/v1/artifacts", sv.handleArtifactUpload},
		{"GET", "/v1/artifacts", sv.handleArtifactList},
		{"GET", "/v1/artifacts/{id}", sv.handleArtifactDownload},
		{"DELETE", "/v1/artifacts/{id}", sv.handleArtifactDelete},
		{"GET", "/v1/registry", sv.handleRegistry},
		{"GET", "/metrics", sv.handleMetrics},
		{"GET", "/healthz", sv.handleHealthz},
		{"GET", "/readyz", sv.handleReadyz},
	}...)
	if sv.pprofOn {
		rts = append(rts,
			route{"GET", "/debug/pprof/", pprof.Index},
			route{"GET", "/debug/pprof/cmdline", pprof.Cmdline},
			route{"GET", "/debug/pprof/profile", pprof.Profile},
			route{"GET", "/debug/pprof/symbol", pprof.Symbol},
			route{"GET", "/debug/pprof/trace", pprof.Trace},
		)
	}
	return rts
}

// Metrics returns the server's obs registry — /metrics exposes it, and
// embedders may add their own instruments.
func (sv *Server) Metrics() *obs.Registry { return sv.reg }

func (sv *Server) handleRegistry(w http.ResponseWriter, _ *http.Request) {
	reg := Registry()
	reg["artifacts"] = sv.artifactNames()
	writeJSON(w, http.StatusOK, reg)
}

// handleHealthz is liveness: the process is up and serving HTTP.
func (sv *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: 200 while the server admits work, 503 +
// Retry-After the moment draining starts — load balancers stop routing
// here while in-flight requests finish. The 503 body names the drain
// reason so an operator reading the probe knows why the instance left
// rotation.
func (sv *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if sv.ready.Load() {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
		return
	}
	sv.drainMu.Lock()
	reason := sv.drainReason
	sv.drainMu.Unlock()
	if reason == "" {
		reason = "draining"
	}
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, map[string]string{
		"status": "draining",
		"reason": reason,
	})
}

// StartDrain flips /readyz to 503 without refusing work — call it when
// shutdown begins (before the listener closes) so load balancers drain
// connections ahead of the hard stop. Idempotent: the first call's
// reason sticks.
func (sv *Server) StartDrain() { sv.startDrain("drain requested") }

// startDrain records why the instance left rotation; first reason wins
// so a Shutdown following an explicit StartDrain does not overwrite the
// original cause. Safe to call any number of times.
func (sv *Server) startDrain(reason string) {
	sv.drainMu.Lock()
	if sv.drainReason == "" {
		sv.drainReason = reason
	}
	sv.drainMu.Unlock()
	sv.ready.Store(false)
}

// ServeHTTP implements http.Handler through the middleware chain.
func (sv *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { sv.handler.ServeHTTP(w, r) }

// Shutdown cancels every running job, rejects new submissions, drains
// the inference queues (queued requests are still answered), and waits
// for workers (or ctx to expire). Call it after the HTTP listener has
// stopped accepting requests.
func (sv *Server) Shutdown(ctx context.Context) error {
	sv.startDrain("shutdown")
	sv.mu.Lock()
	sv.closed = true
	for key := range sv.infers {
		sv.dropInferLocked(key)
	}
	sv.mu.Unlock()
	sv.stop()
	done := make(chan struct{})
	go func() {
		sv.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// artifactPolicy resolves an "artifact:<id>" policy-axis name to the
// uploaded deployment it references.
func (sv *Server) artifactPolicy(name string) (ehinfer.PolicySpec, bool) {
	id, ok := strings.CutPrefix(name, artifactPrefix)
	if !ok {
		return ehinfer.PolicySpec{}, false
	}
	sv.mu.Lock()
	art := sv.artifacts[id]
	sv.mu.Unlock()
	if art == nil {
		return ehinfer.PolicySpec{}, false
	}
	return ehinfer.PolicyFromDeployed(name, art.bundle.Deployed), true
}

// artifactNames lists the policy-axis names of the uploaded artifacts,
// in upload order.
func (sv *Server) artifactNames() []string {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	names := make([]string, 0, len(sv.artOrder))
	for _, id := range sv.artOrder {
		names = append(names, artifactPrefix+id)
	}
	return names
}

// artifactStatus is one artifact listing entry.
type artifactStatus struct {
	ID          string `json:"id"`
	Name        string `json:"name,omitempty"`
	Policy      string `json:"policy"` // the grid policy-axis name
	Exits       int    `json:"exits"`
	WeightBytes int64  `json:"weightBytes"`
	Backend     string `json:"backend,omitempty"`
	Bytes       int    `json:"bytes"`
	Download    string `json:"download"`
}

func (art *storedArtifact) status() artifactStatus {
	d := art.bundle.Deployed
	st := artifactStatus{
		ID:          art.id,
		Name:        art.name,
		Policy:      artifactPrefix + art.id,
		Exits:       d.Net.NumExits(),
		WeightBytes: d.WeightBytes,
		Bytes:       len(art.data),
		Download:    "/v1/artifacts/" + art.id,
	}
	if d.DefaultBackend != ehinfer.BackendDefault {
		st.Backend = d.DefaultBackend.String()
	}
	return st
}

// handleArtifactUpload accepts a deployment-artifact stream (as written
// by ehinfer.SaveDeployed), decodes it strictly, and stores it under a
// fresh id. Grids reference it as policy "artifact:<id>"; the exact
// uploaded bytes are available for download.
func (sv *Server) handleArtifactUpload(w http.ResponseWriter, r *http.Request) {
	// Reject doomed uploads before burning a body read and a full
	// decode; the same conditions are re-checked under the lock at
	// store time (they can flip mid-request).
	if code, err := sv.artifactStoreFull(); err != nil {
		writeErr(w, code, err)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxArtifactBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("artifact exceeds the %d-byte upload limit", tooBig.Limit))
			return
		}
		writeErr(w, http.StatusBadRequest, fmt.Errorf("read artifact: %w", err))
		return
	}
	bundle, err := ehinfer.DecodeDeployed(bytes.NewReader(data))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// Allocate the id under the lock, persist outside it (fsync is too
	// slow to stall every other endpoint), then publish under the lock
	// again. A shutdown racing the persist step rolls the write back.
	sv.mu.Lock()
	if code, err := sv.admitArtifactLocked(); err != nil {
		sv.mu.Unlock()
		writeErr(w, code, err)
		return
	}
	sv.nextArtID++
	art := &storedArtifact{
		id:     fmt.Sprintf("a%d", sv.nextArtID),
		name:   bundle.Name,
		data:   data,
		bundle: bundle,
	}
	sv.mu.Unlock()

	if sv.store != nil {
		if err := sv.store.Put(art.id, art.name, data); err != nil {
			writeErr(w, http.StatusInternalServerError, fmt.Errorf("persist artifact: %w", err))
			return
		}
	}

	sv.mu.Lock()
	if code, err := sv.admitArtifactLocked(); err != nil {
		sv.mu.Unlock()
		if sv.store != nil {
			_ = sv.store.Delete(art.id)
		}
		writeErr(w, code, err)
		return
	}
	sv.artifacts[art.id] = art
	sv.artOrder = append(sv.artOrder, art.id)
	sv.mu.Unlock()

	w.Header().Set("Location", "/v1/artifacts/"+art.id)
	writeJSON(w, http.StatusCreated, art.status())
}

// artifactStoreFull reports why an upload cannot be admitted (shutdown
// or store at capacity), or (0, nil).
func (sv *Server) artifactStoreFull() (int, error) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.admitArtifactLocked()
}

// admitArtifactLocked is the single admission policy for uploads,
// shared by the cheap pre-read check and the post-decode store path.
// Caller holds sv.mu.
func (sv *Server) admitArtifactLocked() (int, error) {
	if sv.closed {
		return http.StatusServiceUnavailable, fmt.Errorf("serve: server is shutting down")
	}
	if len(sv.artifacts) >= maxArtifacts {
		return http.StatusInsufficientStorage,
			fmt.Errorf("serve: artifact store is full (%d artifacts); DELETE one first", maxArtifacts)
	}
	return 0, nil
}

func (sv *Server) handleArtifactList(w http.ResponseWriter, _ *http.Request) {
	sv.mu.Lock()
	arts := make([]*storedArtifact, 0, len(sv.artOrder))
	for _, id := range sv.artOrder {
		arts = append(arts, sv.artifacts[id])
	}
	sv.mu.Unlock()
	out := make([]artifactStatus, 0, len(arts))
	for _, art := range arts {
		out = append(out, art.status())
	}
	writeJSON(w, http.StatusOK, map[string]any{"artifacts": out})
}

// handleArtifactDownload serves the artifact back byte-for-byte as it
// was uploaded.
func (sv *Server) handleArtifactDownload(w http.ResponseWriter, r *http.Request) {
	sv.mu.Lock()
	art := sv.artifacts[r.PathValue("id")]
	sv.mu.Unlock()
	if art == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown artifact %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(len(art.data)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(art.data)
}

// handleArtifactDelete removes an artifact from the store. Grids
// already resolved against it keep their deployment; new submissions
// referencing the id fail, and its inference queue (if any) is drained
// and closed.
func (sv *Server) handleArtifactDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sv.mu.Lock()
	exists := sv.artifacts[id] != nil
	sv.mu.Unlock()
	if !exists {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown artifact %q", id))
		return
	}
	// Durable tombstone first: if the disk refuses, keep serving the
	// artifact and report the failure rather than let a restart
	// resurrect something the client believes deleted.
	if sv.store != nil {
		if err := sv.store.Delete(id); err != nil {
			writeErr(w, http.StatusInternalServerError, fmt.Errorf("delete artifact: %w", err))
			return
		}
	}
	sv.mu.Lock()
	art := sv.artifacts[id]
	if art != nil {
		delete(sv.artifacts, id)
		sv.dropInferLocked(artifactPrefix + id)
		kept := sv.artOrder[:0]
		for _, a := range sv.artOrder {
			if a != id {
				kept = append(kept, a)
			}
		}
		sv.artOrder = kept
	}
	sv.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

// Registry reports the axis names a GridSpec may reference — surfaced so
// clients can discover valid devices/policies/traces/schedules/backends
// without reading source. The listings read the live registries, so
// components registered at runtime (exper.RegisterDevice and friends)
// appear immediately; the per-server artifact names are merged in by the
// /v1/registry handler.
func Registry() map[string][]string {
	devices := exper.DeviceNames()
	policies := exper.PolicyNames()
	sort.Strings(devices)
	sort.Strings(policies)
	return map[string][]string{
		"devices":     devices,
		"policies":    policies,
		"backends":    exper.BackendNames(),
		"traces":      exper.TraceNames(),
		"schedules":   exper.ScheduleNames(),
		"deployments": exper.DeploymentNames(),
	}
}

// mergeCancel returns a context canceled when either parent is.
func mergeCancel(a, b context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(a)
	stop := context.AfterFunc(b, cancel)
	return ctx, func() { stop(); cancel() }
}

// decodeStrict decodes exactly one JSON value from r into v, rejecting
// unknown fields and anything but whitespace after the value.
// Decoder.More cannot check that tail: it reports false for a stray
// '}' or ']'.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("unexpected data after the JSON value")
	}
	return nil
}

// startNDJSON commits a 200 NDJSON stream and flushes its header.
func startNDJSON(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flush(w)
}

func flush(w http.ResponseWriter) {
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
