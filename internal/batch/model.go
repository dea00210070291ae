// Package batch is the online-inference execution layer behind the
// ehserved /v1/infer endpoint and the public Session.Infer API: it wraps
// a deployed model in a validated, backend-resolved executor (Model) and
// schedules concurrent requests onto it through a micro-batching queue
// (Queue) with bounded backpressure.
//
// The split mirrors the rest of the system: Model is pure execution —
// deterministic, synchronous, one micro-batch at a time — while Queue
// owns the concurrency policy (latency window, batch bound, overflow,
// drain). The serving layer composes one Queue per uploaded artifact or
// registered deployment.
package batch

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/plan"
)

// Options tune one inference request beyond its input.
type Options struct {
	// Exit bounds how deep the trunk runs: the prediction is taken at
	// this exit unless Threshold stops earlier. Negative (the default)
	// means the deepest exit.
	Exit int
	// Threshold, when > 0, enables anytime early exit: the prediction is
	// taken at the first exit whose normalized-entropy confidence
	// reaches it (falling back to the Exit bound when none does). The
	// trunk still runs to the Exit bound — on a batched server the
	// schedule is per micro-batch, not per image — so the threshold
	// selects which computed exit answers, exactly like the paper's
	// incremental-inference confidence test.
	Threshold float64
}

// Req is one validated inference request: a CHW image flattened to the
// model's input volume, plus options.
type Req struct {
	Input []float32
	Options
}

// Prediction is the answer to one request.
type Prediction struct {
	// Class is the predicted class at the exit taken.
	Class int `json:"class"`
	// Exit is the exit the prediction was taken at.
	Exit int `json:"exit"`
	// Confidence is the normalized-entropy confidence at that exit.
	Confidence float64 `json:"confidence"`
	// ExitClasses/ExitConfidences hold every computed exit's argmax and
	// confidence, in exit order up to the request's Exit bound — the
	// anytime-inference profile of the input.
	ExitClasses     []int     `json:"exitClasses"`
	ExitConfidences []float64 `json:"exitConfidences"`
	// Backend names the inference backend that produced the answer.
	Backend string `json:"backend"`
}

// Model is a deployed network bound to a serving backend: a compiled
// batched plan, float32 by default or the packed-weight int8 pipeline.
// All methods are safe for concurrent use; execution state lives on
// pooled lanes, never on the Model.
type Model struct {
	d        *core.Deployed
	backend  core.InferBackend
	geom     plan.Geometry
	maxBatch int

	bplan *plan.Plan
	execs sync.Pool // *batchLane
}

// batchLane is one pooled plan execution context: the batched
// executor plus per-image-slot softmax scratch (per slot because the
// executor's bands may visit exits for different slots concurrently).
type batchLane struct {
	be      *plan.BatchExec
	scratch [][]float32
}

// DefaultMaxBatch is the micro-batch bound models are built with when
// the caller does not choose one.
const DefaultMaxBatch = 8

// NewModel binds a deployment to a serving backend. backend resolution
// follows the runtime's precedence: an explicit choice wins, otherwise
// the deployment's own DefaultBackend, otherwise the compiled plan.
// A deployment whose plan does not compile on that backend is rejected,
// and so is one the plan compiler cannot size (no leading conv with
// nominal dims): the serving boundary must know the input shape to
// validate requests.
func NewModel(d *core.Deployed, backend core.InferBackend, maxBatch int) (*Model, error) {
	if d == nil {
		return nil, fmt.Errorf("batch: nil deployment")
	}
	if maxBatch < 1 {
		maxBatch = DefaultMaxBatch
	}
	if backend == core.BackendDefault {
		backend = d.DefaultBackend
	}
	backend = backend.Resolve()

	geom, err := plan.InferGeometry(d.Net)
	if err != nil {
		return nil, fmt.Errorf("batch: cannot serve this architecture: %w", err)
	}
	m := &Model{d: d, backend: backend, geom: geom, maxBatch: maxBatch}
	if backend == core.BackendInt8Fast {
		m.bplan, err = d.Int8FastPlanPinned()
	} else {
		m.bplan, err = d.FloatPlan()
	}
	if err != nil {
		return nil, fmt.Errorf("batch: %s backend cannot compile this deployment: %w", backend, err)
	}
	return m, nil
}

// Deployed returns the model's deployment.
func (m *Model) Deployed() *core.Deployed { return m.d }

// Backend returns the resolved serving backend.
func (m *Model) Backend() core.InferBackend { return m.backend }

// NumExits returns the number of exits the model serves.
func (m *Model) NumExits() int { return m.d.Net.NumExits() }

// MaxBatch returns the largest micro-batch InferBatch dispatches at
// once; longer request slices are chunked.
func (m *Model) MaxBatch() int { return m.maxBatch }

// InputShape returns the expected input geometry (channels, height,
// width).
func (m *Model) InputShape() (c, h, w int) { return m.geom.C, m.geom.H, m.geom.W }

// InputLen returns the expected flattened input length.
func (m *Model) InputLen() int { return m.geom.Vol() }

// Validate checks one request at the serving boundary, returning a
// client-addressable error wrapping ErrBadInput: wrong input volume,
// non-finite values, an exit bound out of range, or a threshold outside
// [0, 1]. Anything that passes cannot panic the execution layers.
func (m *Model) Validate(r *Req) error {
	if want := m.geom.Vol(); len(r.Input) != want {
		return fmt.Errorf("%w: input has %d values, want %d (%d×%d×%d CHW)",
			ErrBadInput, len(r.Input), want, m.geom.C, m.geom.H, m.geom.W)
	}
	for i, v := range r.Input {
		if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("%w: input[%d] is %v; values must be finite", ErrBadInput, i, v)
		}
	}
	if r.Exit >= m.NumExits() {
		return fmt.Errorf("%w: exit %d out of range: model has %d exits", ErrBadInput, r.Exit, m.NumExits())
	}
	if !(r.Threshold >= 0 && r.Threshold <= 1) { // rejects NaN too
		return fmt.Errorf("%w: threshold %v outside [0, 1]", ErrBadInput, r.Threshold)
	}
	return nil
}

// InferBatch answers a slice of already-validated requests, chunking it
// into micro-batches of at most MaxBatch. Every image's per-exit logits
// are bit-identical to a single-image run on the same backend, so the
// answer to a request does not depend on what it was batched with.
func (m *Model) InferBatch(reqs []Req) []Prediction {
	preds := make([]Prediction, len(reqs))
	for lo := 0; lo < len(reqs); lo += m.maxBatch {
		hi := min(lo+m.maxBatch, len(reqs))
		m.inferChunk(reqs[lo:hi], preds[lo:hi])
	}
	return preds
}

// Infer answers one request.
func (m *Model) Infer(r Req) Prediction {
	return m.InferBatch([]Req{r})[0]
}

// inferChunk answers one micro-batch (len <= maxBatch).
func (m *Model) inferChunk(reqs []Req, preds []Prediction) {
	last := m.NumExits() - 1
	maxExit := 0
	for i := range reqs {
		if reqs[i].Exit < 0 {
			reqs[i].Exit = last
		}
		if reqs[i].Exit > maxExit {
			maxExit = reqs[i].Exit
		}
		preds[i] = Prediction{
			Backend:         m.backend.String(),
			ExitClasses:     make([]int, 0, reqs[i].Exit+1),
			ExitConfidences: make([]float64, 0, reqs[i].Exit+1),
		}
	}
	m.inferBatched(reqs, preds, maxExit)
	for i := range preds {
		p := &preds[i]
		// Exit taken: the first exit whose confidence clears the
		// request's threshold, else the request's exit bound.
		take := len(p.ExitConfidences) - 1
		if th := reqs[i].Threshold; th > 0 {
			for e, c := range p.ExitConfidences {
				if c >= th {
					take = e
					break
				}
			}
		}
		p.Exit = take
		p.Class = p.ExitClasses[take]
		p.Confidence = p.ExitConfidences[take]
	}
}

// inferBatched runs the chunk through a pooled batched executor
// (float32 or int8 plan), scanning every exit up to the chunk bound in
// one pass.
func (m *Model) inferBatched(reqs []Req, preds []Prediction, maxExit int) {
	var ln *batchLane
	if v := m.execs.Get(); v != nil {
		ln = v.(*batchLane)
	} else {
		ln = &batchLane{be: m.bplan.NewBatchExec(m.maxBatch), scratch: make([][]float32, m.maxBatch)}
		for i := range ln.scratch {
			ln.scratch[i] = make([]float32, m.d.Net.Classes)
		}
	}
	defer m.execs.Put(ln)
	inputs := make([][]float32, len(reqs))
	for i := range reqs {
		inputs[i] = reqs[i].Input
	}
	ln.be.ScanExits(inputs, maxExit, func(e, i int, logits []float32) {
		if e <= reqs[i].Exit {
			p := &preds[i]
			p.ExitClasses = append(p.ExitClasses, plan.Argmax(logits))
			p.ExitConfidences = append(p.ExitConfidences, plan.LogitsConfidence(logits, ln.scratch[i]))
		}
	})
}
