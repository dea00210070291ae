package batch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// stubInferer answers requests with a tag derived from the input's
// first value, optionally sleeping to simulate slow inference and
// recording every dispatched batch.
type stubInferer struct {
	delay time.Duration

	mu      sync.Mutex
	batches [][]float32 // first value of each request per dispatch
	served  int64
}

func (s *stubInferer) InferBatch(reqs []Req) []Prediction {
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	preds := make([]Prediction, len(reqs))
	firsts := make([]float32, len(reqs))
	for i, r := range reqs {
		preds[i] = Prediction{Class: int(r.Input[0]), Exit: r.Exit, Backend: "stub"}
		firsts[i] = r.Input[0]
	}
	s.mu.Lock()
	s.batches = append(s.batches, firsts)
	s.served += int64(len(reqs))
	s.mu.Unlock()
	return preds
}

func req(tag int) Req { return Req{Input: []float32{float32(tag)}} }

// TestQueueEchoesEveryRequest drives concurrent submitters against two
// queues (two "artifacts") and checks every request is answered exactly
// once with its own prediction — the cross-model race test (-race).
func TestQueueEchoesEveryRequest(t *testing.T) {
	const submitters, perSubmitter = 8, 25
	stubA := &stubInferer{}
	qa := NewQueue(stubA, Config{MaxBatch: 4, Window: 500 * time.Microsecond, QueueCap: 1024})
	qb := NewQueue(&stubInferer{}, Config{MaxBatch: 7, Window: 500 * time.Microsecond, QueueCap: 1024})
	defer qa.Close(context.Background())
	defer qb.Close(context.Background())

	var wg sync.WaitGroup
	errs := make(chan error, submitters*perSubmitter)
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				q := qa
				if (s+i)%2 == 1 {
					q = qb
				}
				tag := s*1000 + i
				pred, err := q.Submit(context.Background(), req(tag))
				if err != nil {
					errs <- err
					continue
				}
				if pred.Class != tag {
					errs <- fmt.Errorf("tag %d answered with %d", tag, pred.Class)
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	served := qa.m.Served.Value() + qb.m.Served.Value()
	if served != submitters*perSubmitter {
		t.Fatalf("served %d, want %d", served, submitters*perSubmitter)
	}
	if ra, rb := qa.m.Rejected.Value(), qb.m.Rejected.Value(); ra != 0 || rb != 0 {
		t.Fatalf("unexpected rejections %d/%d", ra, rb)
	}
	// The size histogram must account for every dispatch, and no batch
	// may exceed its queue's bound.
	if n, batches := qa.m.BatchSize.Count(), qa.m.Batches.Value(); int64(n) != batches {
		t.Fatalf("size histogram holds %d dispatches, batches %d", n, batches)
	}
	for _, b := range stubA.batches {
		if len(b) > 4 {
			t.Fatalf("queue A dispatched a batch of %d (bound 4)", len(b))
		}
	}
}

// TestQueueBatchesUnderLoad checks that the window actually coalesces:
// with a slow inferer and many concurrent submitters, dispatches must
// carry more than one request on average.
func TestQueueBatchesUnderLoad(t *testing.T) {
	stub := &stubInferer{delay: 2 * time.Millisecond}
	q := NewQueue(stub, Config{MaxBatch: 8, Window: 5 * time.Millisecond, QueueCap: 256})
	defer q.Close(context.Background())

	const n = 48
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := q.Submit(context.Background(), req(i)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	served, batches := q.m.Served.Value(), q.m.Batches.Value()
	if served != n {
		t.Fatalf("served %d, want %d", served, n)
	}
	if mean := float64(served) / float64(batches); mean <= 1.2 {
		t.Errorf("mean batch %.2f: the window did not coalesce concurrent requests", mean)
	}
	if got := q.m.Latency.Count(); got != n || q.m.Latency.Sum() <= 0 {
		t.Errorf("latency histogram holds %d observations summing to %gs, want %d > 0", got, q.m.Latency.Sum(), n)
	}
}

// TestQueueBackpressure fills a tiny queue behind a stalled inferer and
// checks the bound produces ErrQueueFull (the HTTP 429 signal), while
// every accepted request is still answered.
func TestQueueBackpressure(t *testing.T) {
	stub := &stubInferer{delay: 20 * time.Millisecond}
	q := NewQueue(stub, Config{MaxBatch: 2, Window: time.Millisecond, QueueCap: 4})
	defer q.Close(context.Background())

	const n = 40
	var accepted, rejected, answered atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tkt, err := q.Enqueue(context.Background(), req(i))
			if errors.Is(err, ErrQueueFull) {
				rejected.Add(1)
				return
			}
			if err != nil {
				t.Error(err)
				return
			}
			accepted.Add(1)
			if _, err := tkt.Wait(context.Background()); err != nil {
				t.Error(err)
				return
			}
			answered.Add(1)
		}(i)
	}
	wg.Wait()
	if rejected.Load() == 0 {
		t.Fatal("no request hit the queue bound")
	}
	if answered.Load() != accepted.Load() {
		t.Fatalf("%d accepted but %d answered", accepted.Load(), answered.Load())
	}
	if q.m.Rejected.Value() != rejected.Load() || q.m.Served.Value() != answered.Load() {
		t.Fatalf("metrics (served %d, rejected %d) vs observed (%d, %d)",
			q.m.Served.Value(), q.m.Rejected.Value(), answered.Load(), rejected.Load())
	}
}

// TestQueueCancellationMidWindow cancels requests after admission but
// before dispatch: the submitter unblocks with ctx.Err(), the
// dispatcher skips the corpse, and live requests are unaffected.
func TestQueueCancellationMidWindow(t *testing.T) {
	q := NewQueue(&stubInferer{}, Config{MaxBatch: 16, Window: 50 * time.Millisecond, QueueCap: 64})
	defer q.Close(context.Background())

	// The long window holds the batch open: admit one live and several
	// canceled requests into the same window.
	live, err := q.Enqueue(context.Background(), req(1))
	if err != nil {
		t.Fatal(err)
	}
	var canceledWait sync.WaitGroup
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		tkt, err := q.Enqueue(ctx, req(100+i))
		if err != nil {
			t.Fatal(err)
		}
		canceledWait.Add(1)
		go func() {
			defer canceledWait.Done()
			if _, err := tkt.Wait(ctx); !errors.Is(err, context.Canceled) {
				t.Errorf("canceled request got %v", err)
			}
		}()
		cancel()
	}
	canceledWait.Wait()

	pred, err := live.Wait(context.Background())
	if err != nil || pred.Class != 1 {
		t.Fatalf("live request: %v / %+v", err, pred)
	}
	// Allow the dispatcher to retire the canceled slots, then verify
	// accounting: 1 served, 5 canceled, depth back to zero.
	deadline := time.Now().Add(2 * time.Second)
	for {
		canceled, served, depth := q.m.Canceled.Value(), q.m.Served.Value(), q.m.Depth.Value()
		if canceled == 5 && served == 1 && depth == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics never settled: canceled %d, served %d, depth %g", canceled, served, depth)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQueueShutdownDrain closes a queue with requests still waiting:
// every admitted request must be answered (drained, not lost), new
// submissions must fail with ErrClosed, and no request may be answered
// twice.
func TestQueueShutdownDrain(t *testing.T) {
	stub := &stubInferer{delay: 5 * time.Millisecond}
	q := NewQueue(stub, Config{MaxBatch: 3, Window: 30 * time.Millisecond, QueueCap: 128})

	const n = 20
	type result struct {
		tag  int
		pred Prediction
		err  error
	}
	results := make(chan result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		tkt, err := q.Enqueue(context.Background(), req(i))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, tkt *Ticket) {
			defer wg.Done()
			p, err := tkt.Wait(context.Background())
			results <- result{tag: i, pred: p, err: err}
		}(i, tkt)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := q.Close(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := q.Submit(context.Background(), req(999)); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close submit: %v, want ErrClosed", err)
	}

	wg.Wait()
	close(results)
	seen := map[int]bool{}
	for r := range results {
		if r.err != nil {
			t.Fatalf("request %d lost at shutdown: %v", r.tag, r.err)
		}
		if r.pred.Class != r.tag {
			t.Fatalf("request %d answered with %d", r.tag, r.pred.Class)
		}
		if seen[r.tag] {
			t.Fatalf("request %d answered twice", r.tag)
		}
		seen[r.tag] = true
	}
	if len(seen) != n {
		t.Fatalf("answered %d of %d", len(seen), n)
	}
	// Closing again is a no-op.
	if err := q.Close(context.Background()); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestQueueOnRealModel wires the queue to a real plan-backed model and
// hammers it concurrently — the integration race test: concurrent
// submitters across two real artifacts with live plan executors.
func TestQueueOnRealModel(t *testing.T) {
	ma, err := NewModel(testDeployed(t, core.BackendDefault), core.BackendDefault, 4)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := NewModel(testDeployed(t, core.BackendInt8Fast), core.BackendDefault, 4)
	if err != nil {
		t.Fatal(err)
	}
	qa := NewQueue(ma, Config{MaxBatch: 4, Window: time.Millisecond, QueueCap: 256})
	qb := NewQueue(mb, Config{MaxBatch: 4, Window: time.Millisecond, QueueCap: 256})
	defer qa.Close(context.Background())
	defer qb.Close(context.Background())

	wantA := ma.Infer(Req{Input: testInput(7, ma.InputLen()), Options: Options{Exit: -1}})
	wantB := mb.Infer(Req{Input: testInput(7, mb.InputLen()), Options: Options{Exit: -1}})

	var wg sync.WaitGroup
	for s := 0; s < 6; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				q, want := qa, wantA
				if (s+i)%2 == 1 {
					q, want = qb, wantB
				}
				in := testInput(7, ma.InputLen())
				got, err := q.Submit(context.Background(), Req{Input: in, Options: Options{Exit: -1}})
				if err != nil {
					t.Error(err)
					return
				}
				if got.Class != want.Class || got.Confidence != want.Confidence {
					t.Errorf("batched answer (%d, %v) differs from solo (%d, %v)",
						got.Class, got.Confidence, want.Class, want.Confidence)
				}
			}
		}(s)
	}
	wg.Wait()
}

// panicInferer blows up on request tags >= 1000.
type panicInferer struct{ stub stubInferer }

func (p *panicInferer) InferBatch(reqs []Req) []Prediction {
	for _, r := range reqs {
		if r.Input[0] >= 1000 {
			panic("poisoned request")
		}
	}
	return p.stub.InferBatch(reqs)
}

// TestQueueSurvivesInfererPanic: a panic during batch execution must
// fail that batch's requests with an error — and leave the worker alive
// for the next batch — never unwind the daemon.
func TestQueueSurvivesInfererPanic(t *testing.T) {
	q := NewQueue(&panicInferer{}, Config{MaxBatch: 4, Window: time.Millisecond, QueueCap: 16})
	defer q.Close(context.Background())

	if _, err := q.Submit(context.Background(), req(1000)); !errors.Is(err, ErrInferenceFailed) {
		t.Fatalf("poisoned request: err = %v, want ErrInferenceFailed", err)
	}
	pred, err := q.Submit(context.Background(), req(7))
	if err != nil || pred.Class != 7 {
		t.Fatalf("queue did not survive the panic: %v / %+v", err, pred)
	}
	if errored, served, depth := q.m.Errored.Value(), q.m.Served.Value(), q.m.Depth.Value(); errored != 1 || served != 1 || depth != 0 {
		t.Fatalf("panicked batch accounting: errored %d, served %d, depth %g", errored, served, depth)
	}
}

// TestQueueCloseIdempotentConcurrent: overlapping Close calls are safe
// and all return success once the worker exits; submissions afterward
// fail ErrClosed.
func TestQueueCloseIdempotentConcurrent(t *testing.T) {
	q := NewQueue(&stubInferer{}, Config{MaxBatch: 4, Window: time.Millisecond, QueueCap: 8})
	if _, err := q.Submit(context.Background(), req(1)); err != nil {
		t.Fatalf("warmup submit: %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := q.Close(ctx); err != nil {
				t.Errorf("concurrent close: %v", err)
			}
		}()
	}
	wg.Wait()
	if _, err := q.Submit(context.Background(), req(2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close submit: %v, want ErrClosed", err)
	}
}
