package batch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// Inferer executes one micro-batch of validated requests. *Model is the
// production implementation; tests substitute stubs to probe the queue's
// scheduling without paying for inference.
type Inferer interface {
	InferBatch(reqs []Req) []Prediction
}

// Config tunes a queue's micro-batching policy.
type Config struct {
	// MaxBatch is the most requests one dispatch carries (default 8).
	MaxBatch int
	// Window is how long the dispatcher holds an under-full batch open
	// waiting for company (default 2ms). Larger windows trade tail
	// latency for bigger batches; zero keeps the default, negative
	// dispatches immediately (degenerate per-request batches).
	Window time.Duration
	// QueueCap bounds the requests waiting to be dispatched (default
	// 256). At the bound Submit fails fast with ErrQueueFull — the
	// backpressure signal the HTTP layer turns into 429.
	QueueCap int
	// Metrics routes the queue's counters into a shared obs registry
	// (one instrument set per served model). Nil gets private,
	// unregistered instruments: the queue still counts, nothing is
	// exposed.
	Metrics *Metrics
}

// Metrics is the obs instrument set a queue updates. Counters are
// monotonic across queue generations: when the serving layer tears a
// queue down and later rebuilds one for the same model, passing the same
// Metrics continues the series instead of resetting it.
type Metrics struct {
	// Served counts answered requests; Rejected counts ErrQueueFull
	// refusals; Canceled counts requests whose context ended before
	// dispatch; Errored counts requests whose execution failed
	// (recovered panic), which are not part of Served; Batches counts
	// non-empty dispatches.
	Served, Rejected, Canceled, Errored, Batches *obs.Counter
	// BatchSize takes one observation per non-empty dispatch. For exact
	// per-size counts, build it with unit-width integer buckets:
	// obs.LinearBuckets(1, 1, MaxBatch).
	BatchSize *obs.Histogram
	// Latency takes one observation per served request
	// (admission→answer), in seconds.
	Latency *obs.Histogram
	// Depth tracks requests admitted but not yet answered.
	Depth *obs.Gauge
}

// newPrivateMetrics builds an unregistered instrument set for queues
// whose owner did not supply one.
func newPrivateMetrics(maxBatch int) *Metrics {
	return &Metrics{
		Served:    &obs.Counter{},
		Rejected:  &obs.Counter{},
		Canceled:  &obs.Counter{},
		Errored:   &obs.Counter{},
		Batches:   &obs.Counter{},
		BatchSize: obs.NewHistogram(obs.LinearBuckets(1, 1, maxBatch)),
		Latency:   obs.NewHistogram(obs.DefLatencyBuckets),
		Depth:     &obs.Gauge{},
	}
}

func (c *Config) fillDefaults() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.Window == 0 {
		c.Window = 2 * time.Millisecond
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
}

// Queue errors.
var (
	// ErrQueueFull reports that the pending-request bound was hit; the
	// caller should shed load (HTTP 429).
	ErrQueueFull = errors.New("batch: queue is full")
	// ErrClosed reports submission to a closed queue.
	ErrClosed = errors.New("batch: queue is closed")
	// ErrInferenceFailed wraps a panic recovered during batch execution
	// — a server-side failure (HTTP 500), distinct from the transient
	// shed/shutdown conditions a client may retry.
	ErrInferenceFailed = errors.New("batch: inference failed")
	// ErrBadInput wraps every request-validation failure (wrong input
	// volume, non-finite values, exit bound out of range, bad
	// threshold) — the client-addressable taxonomy entry (HTTP 400).
	ErrBadInput = errors.New("batch: bad input")
)

// Queue accumulates inference requests into micro-batches: a dispatch
// fires as soon as MaxBatch requests are waiting, or Window after the
// first request of an under-full batch arrived. One worker goroutine
// owns dispatch order, so a queue never runs its Inferer concurrently
// with itself (concurrency across models comes from one queue per
// model). Submit is safe for any number of concurrent callers.
//
// A served or failed request is counted (depth, then served with its
// batch and latency, or errored) before its answer is released, so a
// read of its Metrics (or of /metrics) made after receiving an answer
// includes it.
// A canceled request is counted when the dispatcher reaches it, which
// may be after its submitter has already returned with ctx.Err().
type Queue struct {
	inf Inferer
	cfg Config

	ch   chan *pending
	stop chan struct{}
	done chan struct{}

	stateMu sync.RWMutex
	closed  bool

	// m holds the instruments (counters, size/latency histograms,
	// depth gauge). depthMu orders the depth updates so the gauge
	// always shows the latest count.
	m       *Metrics
	depthMu sync.Mutex
	depth   int64 // requests accepted but not yet answered

	// Dispatch scratch, sized to MaxBatch once at construction. Only
	// the worker goroutine touches these, and noteBatch has read
	// latsBuf before the next dispatch reuses it, so per-batch
	// reslicing is safe and the dispatch path stays allocation-free.
	reqsBuf []Req
	latsBuf []time.Duration
}

// outcome travels back to the submitter.
type outcome struct {
	pred Prediction
	err  error
}

// pending is one queued request.
type pending struct {
	req      Req
	ctx      context.Context
	enqueued time.Time
	done     chan outcome // buffered(1): the worker never blocks on it
}

// NewQueue starts a queue dispatching onto inf. Close it to drain.
func NewQueue(inf Inferer, cfg Config) *Queue {
	cfg.fillDefaults()
	m := cfg.Metrics
	if m == nil {
		m = newPrivateMetrics(cfg.MaxBatch)
	}
	q := &Queue{
		inf:     inf,
		cfg:     cfg,
		m:       m,
		ch:      make(chan *pending, cfg.QueueCap),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		reqsBuf: make([]Req, 0, cfg.MaxBatch),
		latsBuf: make([]time.Duration, 0, cfg.MaxBatch),
	}
	go q.worker()
	return q
}

// Ticket is an accepted request waiting for its answer.
type Ticket struct {
	p *pending
}

// Enqueue admits a request without waiting for the result, so a
// multi-input HTTP request can queue all its inputs into the same
// micro-batching window before collecting. Fails fast with ErrQueueFull
// at the bound and ErrClosed after Close. ctx cancellation after
// admission makes the dispatcher skip the request.
func (q *Queue) Enqueue(ctx context.Context, r Req) (*Ticket, error) {
	p := &pending{req: r, ctx: ctx, enqueued: time.Now(), done: make(chan outcome, 1)}
	// The state read-lock pairs with Close's write-lock: once closed is
	// set no new request can enter ch, so the worker's final drain
	// observes a complete queue.
	q.stateMu.RLock()
	defer q.stateMu.RUnlock()
	if q.closed {
		return nil, ErrClosed
	}
	select {
	case q.ch <- p:
		q.addDepth(1)
		return &Ticket{p: p}, nil
	default:
		q.m.Rejected.Inc()
		return nil, ErrQueueFull
	}
}

// Wait blocks for the request's answer. It returns ctx.Err() if ctx
// ends first — the dispatcher then observes the cancellation and skips
// the request (its slot is never silently dropped: every admitted
// request is either answered or skipped-as-canceled, exactly once).
func (t *Ticket) Wait(ctx context.Context) (Prediction, error) {
	select {
	case out := <-t.p.done:
		return out.pred, out.err
	case <-ctx.Done():
		return Prediction{}, ctx.Err()
	}
}

// Submit is Enqueue+Wait for the single-request caller.
func (q *Queue) Submit(ctx context.Context, r Req) (Prediction, error) {
	t, err := q.Enqueue(ctx, r)
	if err != nil {
		return Prediction{}, err
	}
	return t.Wait(ctx)
}

// Close stops admissions, waits for the dispatcher to drain every
// already-admitted request (each one still gets a real answer), and
// returns when the worker has exited or ctx gave up.
func (q *Queue) Close(ctx context.Context) error {
	q.stateMu.Lock()
	already := q.closed
	q.closed = true
	q.stateMu.Unlock()
	if !already {
		close(q.stop)
	}
	select {
	case <-q.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// worker is the dispatch loop: collect a batch, execute, repeat; on
// stop, drain whatever is left.
func (q *Queue) worker() {
	defer close(q.done)
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	batch := make([]*pending, 0, q.cfg.MaxBatch)
	for {
		// Block for the batch's first request.
		var first *pending
		select {
		case first = <-q.ch:
		case <-q.stop:
			q.drain(batch[:0])
			return
		}
		batch = append(batch[:0], first)

		// Gather until full, the window closes, or shutdown.
		if q.cfg.Window > 0 {
			timer.Reset(q.cfg.Window)
		gather:
			for len(batch) < q.cfg.MaxBatch {
				select {
				case p := <-q.ch:
					batch = append(batch, p)
				case <-timer.C:
					break gather
				case <-q.stop:
					break gather
				}
			}
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		} else {
			// Immediate mode still fills from whatever already queued.
		fill:
			for len(batch) < q.cfg.MaxBatch {
				select {
				case p := <-q.ch:
					batch = append(batch, p)
				default:
					break fill
				}
			}
		}
		q.dispatch(batch)
		select {
		case <-q.stop:
			q.drain(batch[:0])
			return
		default:
		}
	}
}

// drain answers every request still queued at shutdown, in arrival
// order, in micro-batches.
//
//ehlint:hotpath
func (q *Queue) drain(batch []*pending) {
	for {
		select {
		case p := <-q.ch:
			batch = append(batch, p)
			if len(batch) == q.cfg.MaxBatch {
				q.dispatch(batch)
				batch = batch[:0]
			}
		default:
			if len(batch) > 0 {
				q.dispatch(batch)
			}
			return
		}
	}
}

// dispatch executes one gathered batch: canceled requests are skipped
// (their submitters already returned), live ones run through the
// Inferer and receive their prediction. Live requests are counted
// before any of their answers is sent, so a submitter that reads the
// queue's Metrics after its answer sees itself counted.
//
//ehlint:hotpath
func (q *Queue) dispatch(batch []*pending) {
	live := batch[:0]
	var ncanceled int64
	for _, p := range batch {
		if p.ctx != nil && p.ctx.Err() != nil {
			p.done <- outcome{err: p.ctx.Err()}
			ncanceled++
			continue
		}
		live = append(live, p)
	}
	if len(live) == 0 {
		q.noteBatch(0, ncanceled, nil)
		return
	}
	reqs := q.reqsBuf[:0]
	for _, p := range live {
		reqs = append(reqs, p.req)
	}
	preds, err := q.runBatch(reqs)
	if err != nil {
		// Execution panicked: fail this batch's requests, keep the
		// worker (and the daemon) alive for the next one.
		q.noteFailed(len(live), ncanceled)
		for _, p := range live {
			p.done <- outcome{err: err}
		}
		return
	}
	now := time.Now()
	lats := q.latsBuf[:0]
	for _, p := range live {
		lats = append(lats, now.Sub(p.enqueued))
	}
	q.noteBatch(len(live), ncanceled, lats)
	for i, p := range live {
		p.done <- outcome{pred: preds[i]}
	}
}

// runBatch executes one batch on the Inferer, converting a panic into
// an error. The worker goroutine is the one place inference runs — an
// HTTP handler's recover guard cannot reach it — so this recover is
// what keeps a poisoned request from taking the whole daemon down.
func (q *Queue) runBatch(reqs []Req) (preds []Prediction, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			preds, err = nil, fmt.Errorf("%w: panic: %v", ErrInferenceFailed, rec)
		}
	}()
	return q.inf.InferBatch(reqs), nil
}

// noteFailed retires a batch whose execution errored: the requests
// leave the depth accounting but are counted as errored, not served.
func (q *Queue) noteFailed(size int, ncanceled int64) {
	q.addDepth(-(int64(size) + ncanceled))
	q.m.Canceled.Add(ncanceled)
	q.m.Errored.Add(int64(size))
}

func (q *Queue) noteBatch(size int, ncanceled int64, lats []time.Duration) {
	q.addDepth(-(int64(size) + ncanceled))
	q.m.Canceled.Add(ncanceled)
	if size == 0 {
		return
	}
	q.m.Batches.Inc()
	q.m.Served.Add(int64(size))
	q.m.BatchSize.Observe(float64(size))
	for _, l := range lats {
		q.m.Latency.Observe(l.Seconds())
	}
}

// addDepth moves the admitted-but-unanswered count by d and publishes
// it on the depth gauge.
func (q *Queue) addDepth(d int64) {
	q.depthMu.Lock()
	q.depth += d
	q.m.Depth.Set(float64(q.depth))
	q.depthMu.Unlock()
}
