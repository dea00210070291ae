package serve

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	ehinfer "repro"
)

// getBody GETs a URL and returns status + body.
func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// fakeClock is a hand-advanced time source for deterministic rate-limit
// tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestMiddlewareChainOrder pins the chain's layering contract: recovery
// is outermost (a panicking handler becomes a logged 500, counted per
// route), request ids are echoed, and the metrics layer sits OUTSIDE
// the rate limiter — shed 429s are counted, not invisible.
func TestMiddlewareChainOrder(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	sv := New(
		WithSession(ehinfer.NewSession(ehinfer.WithWorkers(1))),
		WithRateLimit(1, 1), // 1 rps, burst 1: the second request sheds
		WithClock(clk.now),
	)
	// A panicking route, registered like any other so it passes through
	// the full chain.
	sv.mux.Handle("GET /panic", withRoute("/panic", http.HandlerFunc(
		func(http.ResponseWriter, *http.Request) { panic("boom") })))
	ts := newHTTPServer(t, sv)

	// Recovery: the panic becomes a JSON 500, the daemon survives, and
	// both the panic counter and the per-route request counter see it.
	code, body := getBody(t, ts+"/panic")
	if code != http.StatusInternalServerError {
		t.Fatalf("panic route: status %d, want 500", code)
	}
	if !strings.Contains(body, "error") {
		t.Fatalf("panic route: body %q is not a JSON error", body)
	}

	// Request id: echoed when client-sent, generated otherwise.
	req, _ := http.NewRequest(http.MethodGet, ts+"/healthz", nil)
	req.Header.Set("X-Request-ID", "trace-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "trace-42" {
		t.Fatalf("X-Request-ID = %q, want echo of trace-42", got)
	}
	resp, err = http.Get(ts + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("no generated X-Request-ID")
	}

	// Rate limit: burst 1 admits the first /v1/ request; the second
	// sheds 429 with Retry-After, WITHOUT consuming queue or handler
	// work. Health/metrics stay exempt.
	if code, _ := getBody(t, ts+"/v1/jobs"); code != http.StatusOK {
		t.Fatalf("first /v1/jobs: %d", code)
	}
	resp, err = http.Get(ts + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second /v1/jobs: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	for i := 0; i < 3; i++ {
		if code, _ := getBody(t, ts+"/healthz"); code != http.StatusOK {
			t.Fatalf("healthz rate limited: %d", code)
		}
	}

	// The metrics layer counted the shed request and the recovered
	// panic — proof it wraps the rate limiter, and recovery wraps all.
	code, metrics := getBody(t, ts+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	for _, want := range []string{
		`ehserved_requests_total{route="ratelimited",code="429"} 1`,
		`ehserved_requests_total{route="/panic",code="500"} 1`,
		`ehserved_panics_recovered_total 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestLimiterBurstAndRefill drives the token bucket with a fake clock:
// a full burst admits, the empty bucket sheds with an exact retry
// horizon, and tokens refill at the configured rate — never past burst.
func TestLimiterBurstAndRefill(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	l := newLimiter(2, 3, clk.now) // 2 tokens/s, burst 3

	for i := 0; i < 3; i++ {
		if ok, _ := l.allow("c"); !ok {
			t.Fatalf("burst request %d denied", i)
		}
	}
	ok, retry := l.allow("c")
	if ok {
		t.Fatal("4th request admitted past burst")
	}
	if want := 500 * time.Millisecond; retry != want {
		t.Fatalf("retry = %v, want %v", retry, want)
	}

	// Half a second refills exactly one token at 2/s.
	clk.advance(500 * time.Millisecond)
	if ok, _ := l.allow("c"); !ok {
		t.Fatal("refilled token denied")
	}
	if ok, _ := l.allow("c"); ok {
		t.Fatal("second token admitted after only one refill interval")
	}

	// A long idle refills to burst, not beyond: exactly 3 admits.
	clk.advance(time.Hour)
	for i := 0; i < 3; i++ {
		if ok, _ := l.allow("c"); !ok {
			t.Fatalf("post-idle request %d denied", i)
		}
	}
	if ok, _ := l.allow("c"); ok {
		t.Fatal("bucket refilled past burst")
	}

	// Clients are independent: c's empty bucket doesn't starve d.
	if ok, _ := l.allow("d"); !ok {
		t.Fatal("fresh client denied")
	}
}

// TestMetricsEndToEnd drives real traffic — an upload, inferences, a
// shed, a grid submit — then asserts every documented metric family is
// present in the exposition, with the infer counters carrying the
// per-model label.
func TestMetricsEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, 1)
	id := uploadArtifact(t, ts.URL, encodeTestArtifact(t, "metrics-e2e"))
	model := "artifact:" + id

	if code, out := postInfer(t, ts.URL, inferBody(id, 3)); code != http.StatusOK {
		t.Fatalf("infer: %d %v", code, out)
	}
	postJSON(t, ts.URL+"/v1/grids", fastSpec)

	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	// Every family from the README's metrics reference table.
	for _, fam := range []string{
		"ehserved_requests_total",
		"ehserved_request_duration_seconds",
		"ehserved_requests_in_flight",
		"ehserved_panics_recovered_total",
		"ehserved_infer_served_total",
		"ehserved_infer_rejected_total",
		"ehserved_infer_canceled_total",
		"ehserved_infer_errored_total",
		"ehserved_infer_batches_total",
		"ehserved_infer_batch_size_requests",
		"ehserved_infer_latency_seconds",
		"ehserved_infer_queue_depth",
		"ehserved_exit_taken_total",
		"ehserved_exit_latency_seconds",
		"ehserved_grid_jobs",
		"ehserved_artifacts",
		"ehserved_start_time_seconds",
		"ehserved_ready",
	} {
		if !strings.Contains(body, "# TYPE "+fam+" ") {
			t.Errorf("/metrics missing family %s", fam)
		}
	}
	// Labeled series carry real counts from the traffic above.
	for _, want := range []string{
		fmt.Sprintf(`ehserved_infer_served_total{model="%s"} 3`, model),
		fmt.Sprintf(`ehserved_infer_queue_depth{model="%s"} 0`, model),
		`ehserved_exit_taken_total{model=`,
		`ehserved_requests_total{route="/v1/infer",code="200"} 1`,
		`ehserved_ready 1`,
		`ehserved_artifacts 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing series %q", want)
		}
	}
	// Histogram exposition is well-formed: cumulative buckets plus
	// _sum/_count for the per-model batch-size histogram.
	for _, want := range []string{
		fmt.Sprintf(`ehserved_infer_batch_size_requests_bucket{model="%s",le="+Inf"}`, model),
		fmt.Sprintf(`ehserved_infer_batch_size_requests_count{model="%s"}`, model),
		fmt.Sprintf(`ehserved_infer_batch_size_requests_sum{model="%s"}`, model),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing histogram series %q", want)
		}
	}
}

// TestReadyzDrain: /readyz flips 503 the moment draining starts while
// /healthz (liveness) stays 200, and the ready gauge follows.
func TestReadyzDrain(t *testing.T) {
	sv, ts := newTestServer(t, 1)

	if code, _ := getBody(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz before drain: %d", code)
	}
	sv.StartDrain()
	if code, body := getBody(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("readyz during drain: %d %q", code, body)
	}
	if code, _ := getBody(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz during drain: %d", code)
	}
	if _, body := getBody(t, ts.URL+"/metrics"); !strings.Contains(body, "ehserved_ready 0") {
		t.Fatal("ready gauge did not flip to 0")
	}
}

// TestPprofGated: the profiling surface exists only behind WithPprof.
func TestPprofGated(t *testing.T) {
	_, ts := newTestServer(t, 1)
	if code, _ := getBody(t, ts.URL+"/debug/pprof/"); code != http.StatusNotFound {
		t.Fatalf("pprof without WithPprof: %d, want 404", code)
	}

	sv := New(WithSession(ehinfer.NewSession(ehinfer.WithWorkers(1))), WithPprof(true))
	url := newHTTPServer(t, sv)
	code, body := getBody(t, url+"/debug/pprof/cmdline")
	if code != http.StatusOK || body == "" {
		t.Fatalf("pprof cmdline with WithPprof: %d", code)
	}
}
