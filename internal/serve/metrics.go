package serve

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"

	ehinfer "repro"
	"repro/internal/batch"
	"repro/internal/chaos"
	"repro/internal/obs"
)

// Metric families the serving path exposes on GET /metrics. The names
// are part of the operational contract — the CI smoke script and the
// e2e test assert them, and the README documents them.
const (
	mRequests        = "ehserved_requests_total"
	mRequestDuration = "ehserved_request_duration_seconds"
	mRequestsInRun   = "ehserved_requests_in_flight"
	mPanics          = "ehserved_panics_recovered_total"
	mInferServed     = "ehserved_infer_served_total"
	mInferRejected   = "ehserved_infer_rejected_total"
	mInferCanceled   = "ehserved_infer_canceled_total"
	mInferErrored    = "ehserved_infer_errored_total"
	mInferBatches    = "ehserved_infer_batches_total"
	mInferBatchSize  = "ehserved_infer_batch_size_requests"
	mInferLatency    = "ehserved_infer_latency_seconds"
	mInferQueueDepth = "ehserved_infer_queue_depth"
	mExitTaken       = "ehserved_exit_taken_total"
	mExitLatency     = "ehserved_exit_latency_seconds"
	mGridJobs        = "ehserved_grid_jobs"
	mArtifacts       = "ehserved_artifacts"
	mStartTime       = "ehserved_start_time_seconds"
	mReady           = "ehserved_ready"

	// Robustness families: fault injection, overload shedding, circuit
	// breaking, request deadlines, and crash recovery.
	mChaosInjected      = "ehserved_chaos_injected_total"
	mLoadShed           = "ehserved_load_shed_total"
	mCircuitState       = "ehserved_circuit_state"
	mCircuitTransitions = "ehserved_circuit_transitions_total"
	mRequestTimeouts    = "ehserved_request_timeouts_total"
	mArtifactRecovery   = "ehserved_artifact_recovery_total"
	mJobsResumed        = "ehserved_jobs_resumed_total"
	mJobPointsRestored  = "ehserved_job_points_restored_total"

	// Fleet families: the fleet-job gauge plus per-fleet series labeled
	// by job id, and the boot-time resume counters.
	mFleetJobs              = "ehserved_fleet_jobs"
	mFleetDevices           = "ehserved_fleet_devices"
	mFleetSnapshots         = "ehserved_fleet_snapshots_total"
	mFleetEvents            = "ehserved_fleet_events_total"
	mFleetBrownouts         = "ehserved_fleet_brownouts_total"
	mFleetsResumed          = "ehserved_fleets_resumed_total"
	mFleetSnapshotsRestored = "ehserved_fleet_snapshots_restored_total"
)

// initMetrics registers help text and the process-level gauges. Per
// route/model/exit series are created lazily at first touch.
func (sv *Server) initMetrics() {
	for _, m := range []struct{ name, kind, help string }{
		{mRequests, "counter", "HTTP requests by route pattern and status code."},
		{mRequestDuration, "histogram", "HTTP request duration in seconds by route pattern."},
		{mRequestsInRun, "gauge", "HTTP requests currently being served."},
		{mPanics, "counter", "Panics recovered by the HTTP middleware."},
		{mInferServed, "counter", "Inference requests answered, by model."},
		{mInferRejected, "counter", "Inference requests shed at the queue bound (429), by model."},
		{mInferCanceled, "counter", "Inference requests whose client left before dispatch, by model."},
		{mInferErrored, "counter", "Inference requests failed by a recovered execution panic, by model."},
		{mInferBatches, "counter", "Micro-batches dispatched, by model."},
		{mInferBatchSize, "histogram", "Requests per dispatched micro-batch, by model (unit buckets: exact counts)."},
		{mInferLatency, "histogram", "Inference latency admission-to-answer in seconds, by model."},
		{mInferQueueDepth, "gauge", "Inference requests admitted but not yet answered, by model."},
		{mExitTaken, "counter", "Predictions by model and the early exit that answered them."},
		{mExitLatency, "histogram", "Server-side inference request latency in seconds by exit taken."},
		{mGridJobs, "gauge", "Grid jobs currently retained (running and finished)."},
		{mArtifacts, "gauge", "Deployment artifacts in the store."},
		{mStartTime, "gauge", "Unix time the server was constructed."},
		{mReady, "gauge", "1 while the server admits work, 0 once draining."},
		{mChaosInjected, "counter", "Faults injected by the chaos layer, by site and kind."},
		{mLoadShed, "counter", "Requests shed 503 by the overload gate, by reason (inflight, latency)."},
		{mCircuitState, "gauge", "Per-model circuit breaker state: 0 closed, 1 half-open, 2 open."},
		{mCircuitTransitions, "counter", "Circuit breaker state transitions, by model and target state."},
		{mRequestTimeouts, "counter", "Requests whose per-request deadline expired, by route."},
		{mArtifactRecovery, "counter", "Artifact recovery outcomes at boot (restored, quarantined, orphaned, torn_manifest, undecodable)."},
		{mJobsResumed, "counter", "Journaled grid jobs resumed at boot."},
		{mJobPointsRestored, "counter", "Grid points restored from job journals instead of re-running."},
		{mFleetJobs, "gauge", "Fleet jobs currently retained (running and finished)."},
		{mFleetDevices, "gauge", "Simulated devices in a fleet, by fleet job id."},
		{mFleetSnapshots, "counter", "Epoch snapshots emitted, by fleet job id."},
		{mFleetEvents, "counter", "Inference events simulated across all devices, by fleet job id."},
		{mFleetBrownouts, "counter", "Events missed to power loss or energy starvation, by fleet job id."},
		{mFleetsResumed, "counter", "Journaled fleet jobs resumed at boot."},
		{mFleetSnapshotsRestored, "counter", "Fleet snapshots restored from journals instead of re-simulating."},
	} {
		sv.reg.SetHelp(m.name, m.kind, m.help)
	}
	sv.reg.Gauge(mStartTime).Set(float64(sv.started.UnixNano()) / 1e9)
	sv.reg.GaugeFunc(mGridJobs, sv.retained(sv.grids))
	sv.reg.GaugeFunc(mFleetJobs, sv.retained(sv.fleets))
	sv.reg.GaugeFunc(mArtifacts, func() float64 {
		sv.mu.Lock()
		defer sv.mu.Unlock()
		return float64(len(sv.artifacts))
	})
	sv.reg.GaugeFunc(mReady, func() float64 {
		if sv.ready.Load() {
			return 1
		}
		return 0
	})
}

// queueMetrics builds the obs instrument set a model's micro-batching
// queue updates, labeled by model key in the server registry. Keyed
// instruments are get-or-create: a queue rebuilt for the same model
// continues the series, and a torn-down queue's counters stay in the
// registry — which is what keeps the /metrics counters monotonic across
// artifact deletes.
func (sv *Server) queueMetrics(key string) *batch.Metrics {
	maxBatch := sv.batchCfg.MaxBatch
	if maxBatch <= 0 {
		maxBatch = batch.DefaultMaxBatch
	}
	return &batch.Metrics{
		Served:    sv.reg.Counter(obs.Metric(mInferServed, "model", key)),
		Rejected:  sv.reg.Counter(obs.Metric(mInferRejected, "model", key)),
		Canceled:  sv.reg.Counter(obs.Metric(mInferCanceled, "model", key)),
		Errored:   sv.reg.Counter(obs.Metric(mInferErrored, "model", key)),
		Batches:   sv.reg.Counter(obs.Metric(mInferBatches, "model", key)),
		BatchSize: sv.reg.Histogram(obs.Metric(mInferBatchSize, "model", key), obs.LinearBuckets(1, 1, maxBatch)),
		Latency:   sv.reg.Histogram(obs.Metric(mInferLatency, "model", key), obs.DefLatencyBuckets),
		Depth:     sv.reg.Gauge(obs.Metric(mInferQueueDepth, "model", key)),
	}
}

// noteExit records a served prediction's exit-taken counter and the
// request's server-side latency bucketed by that exit.
func (sv *Server) noteExit(model string, exit int, elapsed time.Duration) {
	e := strconv.Itoa(exit)
	sv.reg.Counter(obs.Metric(mExitTaken, "model", model, "exit", e)).Inc()
	sv.reg.Histogram(obs.Metric(mExitLatency, "exit", e), obs.DefLatencyBuckets).
		Observe(elapsed.Seconds())
}

// handleMetrics serves the registry in Prometheus text exposition
// format.
func (sv *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = sv.reg.WritePrometheus(w)
}

// errorCodes is the one table mapping the exported error taxonomy to
// HTTP status codes — handlers wrap a sentinel and writeError does the
// rest, so a future gateway can rely on code↔sentinel being stable.
var errorCodes = []struct {
	sentinel error
	code     int
}{
	{ehinfer.ErrBadInput, http.StatusBadRequest},
	{ehinfer.ErrModelNotFound, http.StatusNotFound},
	{ehinfer.ErrQueueFull, http.StatusTooManyRequests},
	{batch.ErrClosed, http.StatusServiceUnavailable},
	{ErrCircuitOpen, http.StatusServiceUnavailable},
	// Injected faults model a transient dependency failure: retryable.
	{chaos.ErrInjected, http.StatusServiceUnavailable},
	{ehinfer.ErrInferenceFailed, http.StatusInternalServerError},
}

// errorCode resolves an error to its wire status via the taxonomy
// table; context cancellations are transient 503s, anything unknown a
// 500.
func errorCode(err error) int {
	for _, e := range errorCodes {
		if errors.Is(err, e.sentinel) {
			return e.code
		}
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// writeError answers with the taxonomy-mapped status; every transient
// shed — 429 queue-full and every 503 flavor (shutdown, open circuit,
// deadline) — carries Retry-After so well-behaved clients back off
// instead of hammering. Callers that know a better hint (the breaker's
// remaining cooldown) set the header first; this only fills the default.
func writeError(w http.ResponseWriter, err error) {
	code := errorCode(err)
	if (code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable) &&
		w.Header().Get("Retry-After") == "" {
		w.Header().Set("Retry-After", "1")
	}
	writeErr(w, code, err)
}

// retained reads how many jobs of kind k the server keeps, running and
// finished.
func (sv *Server) retained(k *jobKind) func() float64 {
	return func() float64 {
		sv.mu.Lock()
		defer sv.mu.Unlock()
		return float64(len(k.order))
	}
}
