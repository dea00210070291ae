// Package serve is the first serving surface of the system: an HTTP/JSON
// API that accepts declarative grid specs (exper.GridSpec) and fleet
// specs (fleet.Spec), executes them on a shared ehinfer.Session, and
// exposes status, NDJSON streaming, and aggregated results. It is the
// layer cmd/ehserved wraps in a daemon.
//
// The server is crash-safe when built with WithStore: artifacts live in
// a durable atomic-write store and jobs checkpoint every grid point or
// fleet snapshot to a journal, so a process killed mid-job resumes it on
// the next boot and produces a final result document byte-identical to
// an uninterrupted run's. WithRequestTimeout, WithLoadShed, and
// WithBreaker add per-request deadlines, overload shedding, and a
// per-model circuit breaker; WithChaos threads a deterministic fault
// injector through the request path for drills. Backoff is the matching
// retry client for the 429/503 + Retry-After responses those gates emit.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	ehinfer "repro"
	"repro/internal/obs"
	"repro/internal/store"
)

// JobState is a job's lifecycle phase.
type JobState string

// Job lifecycle states.
const (
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// jobKind is one kind of asynchronous job, grid or fleet, and the
// server's bookkeeping for it. Everything else about a job, its
// lifecycle, journal, streams and routes, is the same for both kinds.
type jobKind struct {
	name   string // "grid" or "fleet"; routes and list keys add an "s"
	prefix string // of the kind's job ids: "g" or "f"
	// tally adds the status's pointErrs and workers to NDJSON summaries.
	tally bool
	// open decodes a spec with decode and resolves it against the
	// server's artifacts; spec is what the journal header records.
	open func(sv *Server, decode func(spec any) error) (eng engine, spec any, err error)
	// restore fills a finished job's name, items and tallies from its
	// final document.
	restore func(j *job, doc []byte) error
	// countResume counts one job resumed at boot and its restored items
	// on the kind's metric families.
	countResume func(reg *obs.Registry, items int)

	// Guarded by Server.mu: the kind's retained job ids in submission
	// order, and the sequence number of the last id issued.
	order []string
	last  int
}

// seq is the number in one of the kind's job ids ("g12" → 12).
func (k *jobKind) seq(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, k.prefix))
	return n
}

// engine is one resolved job as its kind runs it: a grid or a fleet.
type engine interface {
	// describe returns the job's name and its full run's item count.
	describe() (name string, total int)
	// submitted returns the kind's fields of the 202 submit reply, and
	// streamed those of the ?stream=1 summary line.
	submitted() map[string]any
	streamed() map[string]any
	// bind attaches the job's own metric instruments, once it has an id.
	bind(reg *obs.Registry, id string)
	// resume checks journaled item lines against the spec and sets the
	// engine up to continue after them. It returns the lines to stream
	// before the engine's own.
	resume(lines [][]byte) ([][]byte, error)
	// run drives the engine to its end, handing emit each item with
	// whether it may be journaled, and returns what the run left.
	run(ctx context.Context, session *ehinfer.Session, emit func(item any, durable bool)) (outcome, error)
}

// outcome is what a run leaves besides its state.
type outcome struct {
	doc       []byte // the final document, or nil if the run left none
	workers   int    // the resolved pool size, grids only
	pointErrs int    // failed points, grids only
}

// job is one submitted run of either kind. The run goroutine appends
// each item's encoded line under mu and broadcasts on cond; streaming
// handlers follow the items slice like a tail.
//
// With a data directory configured, the job checkpoints every item to
// its store journal before acknowledging it to streamers, and retires
// the journal when the run ends: Finalize (durable final document) on
// success, Abort on explicit cancel (DELETE, or a client leaving its
// ?stream=1 run) or failure, plain Close on a shutdown mid-run — the
// journal stays, and the next boot resumes the job with the
// checkpointed items restored verbatim.
type job struct {
	id     string
	kind   *jobKind
	name   string
	total  int
	eng    engine // nil for jobs restored already finished
	cancel context.CancelFunc
	log    *slog.Logger

	// Crash-safety wiring; nil for an in-memory-only job. journal is
	// touched only by the run goroutine after construction.
	journal *store.JobJournal
	aborted atomic.Bool // set by DELETE or a departed streamer so retire aborts, not keeps

	mu      sync.Mutex
	cond    *sync.Cond
	state   JobState
	items   [][]byte // one newline-terminated JSON line per item, in stream order
	out     outcome  // set when the run ends
	errMsg  string
	started time.Time
	elapsed time.Duration
}

func newJob(k *jobKind, id string, eng engine, cancel context.CancelFunc, log *slog.Logger) *job {
	j := &job{
		id:      id,
		kind:    k,
		eng:     eng,
		cancel:  cancel,
		log:     log,
		state:   StateRunning,
		started: time.Now(),
	}
	if eng != nil {
		j.name, j.total = eng.describe()
	}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// run drives the job's engine to completion on the session, feeding
// the streaming side as items arrive. It blocks until the run ends.
func (j *job) run(ctx context.Context, session *ehinfer.Session) {
	out, err := j.eng.run(ctx, session, func(item any, durable bool) {
		// One encoding serves the journal and every streamer.
		line, err := json.Marshal(item)
		if err != nil {
			j.log.Error("encoding a job item failed; not streaming it", "kind", j.kind.name, "job", j.id, "err", err)
			return
		}
		// Durability before acknowledgment: the item lands in the journal
		// before any streamer (or a post-crash resume) can observe it.
		if durable {
			j.checkpoint(line)
		}
		j.mu.Lock()
		j.items = append(j.items, append(line, '\n'))
		j.cond.Broadcast()
		j.mu.Unlock()
	})

	elapsed := time.Since(j.started)
	state, errMsg := StateDone, ""
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// Classify by the run's own error, not ctx.Err(): a run that
		// failed for a real reason in the same instant the context died
		// must surface the failure, not masquerade as canceled.
		state, errMsg = StateCanceled, err.Error()
	default:
		state, errMsg = StateFailed, err.Error()
	}
	// Durability before acknowledgment for the outcome too: a client
	// that sees the job finished finds its final document on disk, and
	// retention never sees a finished job whose document is unwritten.
	j.retireJournal(state, out.doc)

	j.mu.Lock()
	j.out = out
	j.elapsed = elapsed
	j.state, j.errMsg = state, errMsg
	j.cond.Broadcast()
	j.mu.Unlock()
}

// checkpoint journals one item line. A failing journal (disk fault)
// degrades the job to in-memory-only: the run continues, the failure is
// logged, and the stale journal is abandoned — at worst the next boot
// re-runs items that had completed, which the determinism contract
// makes harmless.
func (j *job) checkpoint(line []byte) {
	if j.journal == nil {
		return
	}
	if err := j.journal.Append(line); err != nil {
		j.log.Error("job checkpoint failed; continuing without durability", "kind", j.kind.name, "job", j.id, "err", err)
		_ = j.journal.Close()
		j.journal = nil
	}
}

// retireJournal resolves the journal against the run's outcome. Called
// once, from the run goroutine, before the terminal state is visible.
func (j *job) retireJournal(state JobState, doc []byte) {
	if j.journal == nil {
		return
	}
	var err error
	switch {
	case state == StateDone && doc != nil:
		err = j.journal.Finalize(doc)
	case j.aborted.Load() || state == StateFailed:
		// Explicit cancel or a real failure: resuming at next boot would
		// re-run something the operator killed or a spec that fails.
		err = j.journal.Abort()
	default:
		// Canceled by shutdown: keep the journal so the next boot resumes.
		err = j.journal.Close()
	}
	if err != nil {
		j.log.Error("retiring job journal failed", "kind", j.kind.name, "job", j.id, "state", string(state), "err", err)
	}
	j.journal = nil
}

// status returns the job's status under lock.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.id,
		Name:      j.name,
		State:     j.state,
		Completed: len(j.items),
		Total:     j.total,
		Err:       j.errMsg,
	}
	if j.state == StateRunning {
		st.ElapsedMS = time.Since(j.started).Milliseconds()
	} else {
		st.ElapsedMS = j.elapsed.Milliseconds()
		st.Workers = j.out.workers
		st.PointErrs = j.out.pointErrs
	}
	return st
}

// next blocks until the job has more than n items, the run leaves
// StateRunning, or ctx is canceled. It returns the item lines beyond n
// and the job's current state.
func (j *job) next(ctx context.Context, n int) ([][]byte, JobState) {
	// cond.Wait cannot watch a context, so a canceled ctx wakes all
	// waiters and each re-checks its own exit condition.
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	defer stop()

	j.mu.Lock()
	defer j.mu.Unlock()
	for len(j.items) <= n && j.state == StateRunning && ctx.Err() == nil {
		j.cond.Wait()
	}
	// Lines never change once appended, so the caller may read them after
	// the lock is released; the capped capacity keeps its appends off the
	// shared array.
	return j.items[n:len(j.items):len(j.items)], j.state
}

// finalResult returns the job's final document, nil while it runs or if
// the run left none, and its state.
func (j *job) finalResult() ([]byte, JobState) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.out.doc, j.state
}

// tail writes the job's item lines to w from the first on, flushing
// after each batch, until the run ends (true), or ctx ends or a write
// fails (false).
func (j *job) tail(ctx context.Context, w http.ResponseWriter) bool {
	sent := 0
	for {
		batch, state := j.next(ctx, sent)
		for _, line := range batch {
			if _, err := w.Write(line); err != nil {
				return false
			}
			sent++
		}
		flush(w)
		if state != StateRunning {
			return true
		}
		if ctx.Err() != nil {
			return false
		}
	}
}

// summary is the closing line of the job's NDJSON stream.
func (j *job) summary() map[string]any {
	st := j.status()
	line := map[string]any{"done": true, "state": st.State, "completed": st.Completed, "total": st.Total}
	if j.kind.tally {
		line["pointErrs"], line["workers"] = st.PointErrs, st.Workers
	}
	return line
}

// JobStatus is the wire form of a job's state (GET /v1/grids/{id},
// GET /v1/fleets/{id}).
type JobStatus struct {
	ID        string   `json:"id"`
	Name      string   `json:"name"`
	State     JobState `json:"state"`
	Completed int      `json:"completed"`
	Total     int      `json:"total"`
	// Workers is the resolved pool size, known once a grid run finished.
	Workers int `json:"workers,omitempty"`
	// PointErrs counts failed points in a finished grid run.
	PointErrs int    `json:"pointErrs,omitempty"`
	ElapsedMS int64  `json:"elapsedMs"`
	Err       string `json:"err,omitempty"`
}

// jobEntry is one row of the unified GET /v1/jobs listing.
type jobEntry struct {
	Kind string `json:"kind"`
	JobStatus
}

// maxRetainedJobs bounds how many finished jobs of each kind the server
// keeps for status/results queries; past it the oldest finished jobs are
// dropped so a long-lived daemon does not accumulate result sets
// forever. Each kind has its own budget, so a burst of grids cannot
// evict fleet results or vice versa.
const maxRetainedJobs = 128

func (sv *Server) kinds() []*jobKind { return []*jobKind{sv.grids, sv.fleets} }

// register admits a new job of kind k under the server lock; it fails
// once the server is shutting down. On success the server's WaitGroup
// has been incremented for the job — the caller MUST run the job in a
// goroutine that calls sv.wg.Done. (The Add must happen under the same
// lock that Shutdown uses to flip closed, or a racing Shutdown could
// observe a zero WaitGroup and "drain" before the job even starts.)
func (sv *Server) register(k *jobKind, eng engine, cancel context.CancelFunc) (*job, error) {
	sv.mu.Lock()
	if sv.closed {
		sv.mu.Unlock()
		return nil, fmt.Errorf("serve: server is shutting down")
	}
	k.last++
	seq := k.last
	j := newJob(k, k.prefix+strconv.Itoa(seq), eng, cancel, sv.log)
	sv.admitLocked(j)
	sv.pruneLocked(k)
	sv.wg.Add(1)
	sv.mu.Unlock()
	if sv.store != nil {
		// Record the id before the submitter learns it: whatever becomes
		// of the job, no later boot issues the id again.
		if err := sv.store.RecordJobSeq(k.prefix, seq); err != nil {
			sv.log.Error("recording job id failed; a restart may issue it again", "job", j.id, "err", err)
		}
	}
	return j, nil
}

// admitLocked enters j into the server's tables. Caller holds sv.mu.
func (sv *Server) admitLocked(j *job) {
	sv.jobs[j.id] = j
	j.kind.order = append(j.kind.order, j.id)
	if j.eng != nil {
		j.eng.bind(sv.reg, j.id)
	}
}

// pruneLocked drops k's oldest finished jobs beyond maxRetainedJobs.
// Running jobs are never dropped. Caller holds sv.mu.
func (sv *Server) pruneLocked(k *jobKind) {
	if len(k.order) <= maxRetainedJobs {
		return
	}
	kept := k.order[:0]
	excess := len(k.order) - maxRetainedJobs
	for _, id := range k.order {
		if excess > 0 {
			if _, state := sv.jobs[id].finalResult(); state != StateRunning {
				delete(sv.jobs, id)
				excess--
				if sv.store != nil {
					// Retire the on-disk final document with the in-memory
					// entry, so the data directory stays bounded too.
					if err := sv.store.RemoveJob(id); err != nil {
						sv.log.Error("pruning job's on-disk state failed", "job", id, "err", err)
					}
				}
				continue
			}
		}
		kept = append(kept, id)
	}
	k.order = kept
}

// launch runs j in the background, for which the caller has done
// sv.wg.Add, and releases the run's context once the run ends.
func (sv *Server) launch(ctx context.Context, j *job) {
	go func() {
		defer sv.wg.Done()
		defer j.cancel()
		j.run(ctx, sv.session)
	}()
}

// lookup returns the retained job with the given id, of either kind, or
// nil.
func (sv *Server) lookup(id string) *job {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.jobs[id]
}

// find returns the job of kind k the request's path names, or answers
// 404 and returns nil.
func (sv *Server) find(w http.ResponseWriter, r *http.Request, k *jobKind) *job {
	id := r.PathValue("id")
	j := sv.lookup(id)
	if j == nil || j.kind != k {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown %s %q", k.name, id))
		return nil
	}
	return j
}

// statuses returns the status of each of k's jobs, in submission order.
func (sv *Server) statuses(k *jobKind) []JobStatus {
	sv.mu.Lock()
	jobs := make([]*job, len(k.order))
	for i, id := range k.order {
		jobs[i] = sv.jobs[id]
	}
	sv.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	return out
}

// handleSubmit parses a spec of kind k and either launches it
// asynchronously (202 + poll URLs) or, with ?stream=1, runs it bound to
// the request context and streams NDJSON items — cancel the request and
// the run stops at the next point or epoch boundary.
func (sv *Server) handleSubmit(k *jobKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body := http.MaxBytesReader(w, r.Body, maxSpecBytes)
		eng, spec, err := k.open(sv, func(spec any) error {
			if err := decodeStrict(body, spec); err != nil {
				return fmt.Errorf("bad %s spec: %w", k.name, err)
			}
			return nil
		})
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		stream := r.URL.Query().Get("stream") != ""
		// A streamed run inherits the request, so a client that leaves
		// ends it; an asynchronous one lives until DELETE or shutdown.
		var ctx context.Context
		var cancel context.CancelFunc
		if stream {
			ctx, cancel = mergeCancel(r.Context(), sv.baseCtx)
		} else {
			ctx, cancel = context.WithCancel(sv.baseCtx)
		}
		j, err := sv.register(k, eng, cancel) // on success, wg is incremented for the job
		if err != nil {
			cancel()
			writeErr(w, http.StatusServiceUnavailable, err)
			return
		}
		if sv.store != nil {
			// Journal the job before any item runs: the spec header alone
			// is enough for a crashed boot to restart the run from zero. A
			// failing journal degrades this job to in-memory-only.
			if line, merr := json.Marshal(spec); merr == nil {
				if journal, jerr := sv.store.NewJobJournal(j.id, line); jerr == nil {
					j.journal = journal
				} else {
					sv.log.Error("job journal creation failed; running without durability",
						"kind", k.name, "job", j.id, "err", jerr)
				}
			}
		}
		if stream {
			sv.runStreaming(ctx, w, j)
			return
		}
		sv.launch(ctx, j)

		loc := "/v1/" + k.name + "s/" + j.id
		reply := eng.submitted()
		reply["id"], reply["name"], reply["status"], reply["results"] = j.id, j.name, loc, loc+"/results"
		w.Header().Set("Location", loc)
		writeJSON(w, http.StatusAccepted, reply)
	}
}

// runStreaming executes the job synchronously on the request: one
// NDJSON line per item, then a summary line. ctx ends when the client
// disconnects, which aborts the run promptly.
func (sv *Server) runStreaming(ctx context.Context, w http.ResponseWriter, j *job) {
	defer j.cancel()
	startNDJSON(w)
	// The run's end must not cancel ctx: the tail would take that for
	// the client leaving and drop the summary line.
	runDone := make(chan struct{})
	go func() {
		defer sv.wg.Done()
		defer close(runDone)
		j.run(ctx, sv.session)
	}()
	if !j.tail(ctx, w) {
		// A client that leaves its stream cancels the job as DELETE
		// does, journal included; a shutdown keeps the journal so the
		// next boot resumes the job.
		if sv.baseCtx.Err() == nil {
			j.aborted.Store(true)
		}
		j.cancel()
		<-runDone
		return
	}
	<-runDone
	line := j.summary()
	maps.Copy(line, j.eng.streamed())
	_ = json.NewEncoder(w).Encode(line)
}

func (sv *Server) handleList(k *jobKind) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{k.name + "s": sv.statuses(k)})
	}
}

func (sv *Server) handleStatus(k *jobKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if j := sv.find(w, r, k); j != nil {
			writeJSON(w, http.StatusOK, j.status())
		}
	}
}

// handleResults serves a finished job's deterministic final document
// (for a grid: the grid, per-point rows in enumeration order, key-sorted
// aggregates). With ?format=ndjson it instead follows the run live, one
// item per line, ending with a summary line — usable both mid-run and
// after completion. Disconnecting a follower never cancels the job.
func (sv *Server) handleResults(k *jobKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j := sv.find(w, r, k)
		if j == nil {
			return
		}
		if r.URL.Query().Get("format") == "ndjson" {
			startNDJSON(w)
			if j.tail(r.Context(), w) {
				_ = json.NewEncoder(w).Encode(j.summary())
			}
			return
		}
		doc, state := j.finalResult()
		switch {
		case state == StateRunning:
			writeJSON(w, http.StatusConflict, map[string]any{
				"error":  k.name + " still running; poll status or use ?format=ndjson to stream",
				"status": j.status(),
			})
		case doc == nil:
			writeErr(w, http.StatusInternalServerError,
				fmt.Errorf("%s %s finished without results: %s", k.name, j.id, j.status().Err))
		default:
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(doc)
		}
	}
}

func (sv *Server) handleCancel(k *jobKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j := sv.find(w, r, k)
		if j == nil {
			return
		}
		// An explicit cancel aborts the journal too: the operator killed
		// the run on purpose, so the next boot must not resurrect it.
		j.aborted.Store(true)
		j.cancel()
		writeJSON(w, http.StatusAccepted, j.status())
	}
}

// handleJobs lists every async job the server knows — grid and fleet —
// in submission order within each kind.
func (sv *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	out := []jobEntry{}
	for _, k := range sv.kinds() {
		for _, st := range sv.statuses(k) {
			out = append(out, jobEntry{Kind: k.name, JobStatus: st})
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// itemLines encodes restored items as newline-terminated stream lines.
func itemLines[T any](items []T) ([][]byte, error) {
	lines := make([][]byte, len(items))
	for i, item := range items {
		line, err := json.Marshal(item)
		if err != nil {
			return nil, err
		}
		lines[i] = append(line, '\n')
	}
	return lines, nil
}
