package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	ehinfer "repro"
	"repro/internal/batch"
	"repro/internal/exper"
	"repro/internal/obs"
)

// Online-inference bounds: a request carries at most maxInferInputs
// images, and its JSON body at most maxInferBytes.
const (
	maxInferInputs = 64
	maxInferBytes  = 16 << 20
)

// inferTarget is one served model: the resolved executor plus its
// micro-batching queue and (when armed) its circuit breaker. Targets
// are created lazily on first use and keyed by the request's
// artifact/deployment reference.
type inferTarget struct {
	key   string
	model *batch.Model
	queue *batch.Queue
	brk   *breaker // nil unless WithBreaker armed one
}

// inferRequest is the POST /v1/infer wire form. Exactly one of
// Artifact/Deployment selects the model, and exactly one of
// Input/Inputs carries the image(s). fastInferRequest knows these fields
// by their JSON names: a body carrying a field added here is decoded by
// encoding/json until the fast path learns it too.
type inferRequest struct {
	// Artifact references an uploaded artifact by id (e.g. "a1");
	// Deployment references a registered deployment by name.
	Artifact   string `json:"artifact,omitempty"`
	Deployment string `json:"deployment,omitempty"`
	// Input is one flattened CHW image; Inputs a small batch of them.
	Input  []float32   `json:"input,omitempty"`
	Inputs [][]float32 `json:"inputs,omitempty"`
	// Exit bounds inference depth (default: deepest exit); Threshold
	// enables anytime early exit (see batch.Options).
	Exit      *int    `json:"exit,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	// Backend, when set, selects the inference backend for this request
	// ("plan"/"float32"/"legacy", "int8fast"/"int8"); unset uses the
	// server session's default. Each (model, backend) pair is its own
	// served target with its own queue, breaker, and metrics.
	Backend string `json:"backend,omitempty"`
}

// inferResponse is the POST /v1/infer reply.
type inferResponse struct {
	Model       string             `json:"model"`
	Backend     string             `json:"backend"`
	Exits       int                `json:"exits"`
	Predictions []batch.Prediction `json:"predictions"`
}

// handleInfer answers online inference requests against an uploaded
// artifact or a registered deployment. Failures are wrapped in the
// exported error taxonomy and mapped to HTTP codes by the one
// errorCodes table; panics are the recovery middleware's problem.
func (sv *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	start := time.Now()

	body, err := readInferBody(w, r)
	if err != nil {
		writeError(w, fmt.Errorf("%w: bad infer request: %v", ehinfer.ErrBadInput, err))
		return
	}
	req, err := decodeInferRequest(body)
	if err != nil {
		writeError(w, err)
		return
	}

	inputs := req.Inputs
	switch {
	case req.Input != nil && req.Inputs != nil:
		writeError(w, fmt.Errorf(`%w: use "input" or "inputs", not both`, ehinfer.ErrBadInput))
		return
	case req.Input != nil:
		inputs = [][]float32{req.Input}
	case len(inputs) == 0:
		writeError(w, fmt.Errorf(`%w: empty batch: provide "input" or a non-empty "inputs"`, ehinfer.ErrBadInput))
		return
	}
	if len(inputs) > maxInferInputs {
		writeError(w, fmt.Errorf("%w: batch of %d inputs exceeds the per-request limit of %d",
			ehinfer.ErrBadInput, len(inputs), maxInferInputs))
		return
	}

	tgt, err := sv.inferTargetFor(&req)
	if err != nil {
		writeError(w, err)
		return
	}
	if tgt.brk != nil {
		if ok, wait := tgt.brk.Allow(); !ok {
			w.Header().Set("Retry-After", retryAfter(wait))
			writeError(w, fmt.Errorf("%w: model %s failing repeatedly; backing off", ErrCircuitOpen, tgt.key))
			return
		}
	}
	// From here on every exit path feeds the breaker: nil on success,
	// the taxonomy error otherwise. Neutral errors (bad input, client
	// gone) do not move the failure streak but do release a half-open
	// probe slot.
	var outcome error
	defer func() {
		if tgt.brk != nil {
			tgt.brk.Record(outcome)
		}
	}()
	fail := func(err error) {
		outcome = err
		writeError(w, err)
	}

	exit := -1
	if req.Exit != nil {
		exit = *req.Exit
		if exit < 0 {
			fail(fmt.Errorf("%w: exit %d invalid: omit the field for the deepest exit",
				ehinfer.ErrBadInput, exit))
			return
		}
	}
	reqs := make([]batch.Req, len(inputs))
	for i, in := range inputs {
		reqs[i] = batch.Req{Input: in, Options: batch.Options{Exit: exit, Threshold: req.Threshold}}
		if err := tgt.model.Validate(&reqs[i]); err != nil {
			fail(fmt.Errorf("input %d: %w", i, err))
			return
		}
	}

	// Enqueue the whole request before waiting, so all its inputs can
	// share one micro-batching window.
	tickets := make([]*batch.Ticket, len(reqs))
	for i := range reqs {
		t, err := tgt.queue.Enqueue(r.Context(), reqs[i])
		if err != nil {
			if errors.Is(err, batch.ErrQueueFull) {
				err = fmt.Errorf("%w: inference queue for %s", err, tgt.key)
			}
			fail(err)
			return // abandoned tickets carry r.Context() and are skipped once it ends
		}
		tickets[i] = t
	}
	preds := make([]batch.Prediction, len(tickets))
	for i, t := range tickets {
		p, err := t.Wait(r.Context())
		if err != nil {
			// ErrInferenceFailed (a recovered execution panic) maps to a
			// permanent 500 via the taxonomy table — a 503 would invite
			// the client to retry the same poison request. Everything
			// else here is the client leaving or shutdown racing the
			// wait: transient, 503.
			fail(err)
			return
		}
		preds[i] = p
	}
	elapsed := time.Since(start)
	for _, p := range preds {
		sv.noteExit(tgt.key, p.Exit, elapsed)
	}
	writeJSON(w, http.StatusOK, inferResponse{
		Model:       tgt.key,
		Backend:     tgt.model.Backend().String(),
		Exits:       tgt.model.NumExits(),
		Predictions: preds,
	})
}

// inferTargetFor resolves the request's model reference to a served
// target, creating its model and queue on first use. Failures carry
// taxonomy sentinels: ErrBadInput for reference shape, ErrModelNotFound
// for unknown references, batch.ErrClosed during shutdown.
func (sv *Server) inferTargetFor(req *inferRequest) (*inferTarget, error) {
	switch {
	case req.Artifact != "" && req.Deployment != "":
		return nil, fmt.Errorf(`%w: use "artifact" or "deployment", not both`, ehinfer.ErrBadInput)
	case req.Artifact == "" && req.Deployment == "":
		return nil, fmt.Errorf(`%w: missing model reference: set "artifact" (uploaded id) or "deployment" (registered name)`,
			ehinfer.ErrBadInput)
	}

	// The request's backend choice (session default when unset) is part
	// of the target identity: the same artifact served on two backends is
	// two targets, each with its own compiled plan, queue, and breaker.
	backend := sv.session.Backend()
	if req.Backend != "" {
		b, err := ehinfer.ParseBackend(req.Backend)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ehinfer.ErrBadInput, err)
		}
		backend = b
	}

	key := "deployment:" + req.Deployment
	if req.Artifact != "" {
		key = artifactPrefix + req.Artifact
	}
	if req.Backend != "" {
		// Canonical name, so "float32" and "plan" share one target; the
		// no-backend key stays unchanged for existing dashboards.
		key += "@" + backend.Resolve().String()
	}

	// Resolve the deployment under the server lock, but build the model
	// outside it — plan compilation is too slow to stall every other
	// endpoint behind sv.mu.
	sv.mu.Lock()
	if sv.closed {
		sv.mu.Unlock()
		return nil, fmt.Errorf("%w: server is shutting down", batch.ErrClosed)
	}
	if tgt := sv.infers[key]; tgt != nil {
		sv.mu.Unlock()
		return tgt, nil
	}
	var d *ehinfer.Deployed
	if req.Artifact != "" {
		if art := sv.artifacts[req.Artifact]; art != nil {
			d = art.bundle.Deployed
		}
	}
	sv.mu.Unlock()

	if d == nil {
		if req.Artifact != "" {
			return nil, fmt.Errorf("%w: unknown artifact %q", ehinfer.ErrModelNotFound, req.Artifact)
		}
		dep, err := exper.LookupDeployment(req.Deployment)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ehinfer.ErrModelNotFound, err)
		}
		d = dep
	}
	model, err := batch.NewModel(d, backend, sv.batchCfg.MaxBatch)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ehinfer.ErrBadInput, err)
	}

	// First writer wins: a racing request may have built the same target
	// meanwhile (or deleted the artifact — then serving this request
	// from the resolved deployment is still correct, but the target must
	// not be re-registered past its teardown).
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.closed {
		return nil, fmt.Errorf("%w: server is shutting down", batch.ErrClosed)
	}
	if tgt := sv.infers[key]; tgt != nil {
		return tgt, nil
	}
	if req.Artifact != "" && sv.artifacts[req.Artifact] == nil {
		return nil, fmt.Errorf("%w: unknown artifact %q", ehinfer.ErrModelNotFound, req.Artifact)
	}
	cfg := sv.batchCfg
	cfg.Metrics = sv.queueMetrics(key)
	// The chaos seam: dispatch goes through the injector when one is
	// armed, so injected faults surface through the same recover →
	// ErrInferenceFailed path as organic execution panics.
	var inf batch.Inferer = model
	if sv.inj != nil {
		inf = chaosInferer{Inferer: model, in: sv.inj}
	}
	tgt := &inferTarget{key: key, model: model, queue: batch.NewQueue(inf, cfg)}
	if sv.brkThreshold > 0 {
		tgt.brk = newBreaker(sv.brkThreshold, sv.brkCooldown, sv.clock, sv.breakerHook(key))
		sv.reg.Gauge(obs.Metric(mCircuitState, "model", key)).Set(stateValue(circuitClosed))
	}
	sv.infers[key] = tgt
	return tgt, nil
}

// breakerHook observes one model's circuit transitions on the state
// gauge and transition counter. Called under the breaker's lock, so it
// only bumps registry instruments.
func (sv *Server) breakerHook(key string) func(to string) {
	return func(to string) {
		sv.reg.Gauge(obs.Metric(mCircuitState, "model", key)).Set(stateValue(to))
		sv.reg.Counter(obs.Metric(mCircuitTransitions, "model", key, "to", to)).Inc()
	}
}

// dropInferLocked removes a target (artifact deleted, shutdown) and
// closes its queue in the background with a drain deadline. The dead
// queue's counters live in the server registry keyed by model, so they
// survive the teardown — /metrics stays monotonic with no extra
// bookkeeping here. Caller holds sv.mu.
func (sv *Server) dropInferLocked(key string) {
	tgt := sv.infers[key]
	if tgt == nil {
		return
	}
	delete(sv.infers, key)
	sv.wg.Add(1)
	go func() {
		defer sv.wg.Done()
		// Detach from baseCtx's cancellation but keep its values: the
		// drain must finish flushing in-flight requests even while
		// Shutdown is tearing the server down.
		ctx, cancel := context.WithTimeout(context.WithoutCancel(sv.baseCtx), 30*time.Second)
		defer cancel()
		_ = tgt.queue.Close(ctx)
	}()
}
