package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	ehinfer "repro"
)

// fastSpec is a 4-point grid (2 exits × 2 seeds) that runs in tens of
// milliseconds.
const fastSpec = `{
	"name": "e2e",
	"baseSeed": 21,
	"events": 20,
	"traces": [{"name": "s", "kind": "solar", "seconds": 900, "peakPower": 0.05}],
	"exits": [{"name": "q", "mode": 0, "warmup": 2}, {"name": "static", "mode": 1}],
	"storages": [{"name": "3mJ", "storage": {"CapacityMJ": 3, "TurnOnMJ": 0.5, "BrownOutMJ": 0.05, "ChargeEfficiency": 0.9, "LeakMWPerS": 0.0002}}],
	"seeds": [1, 2]
}`

// slowSpec has enough points and warm-up episodes (hundreds of
// simulated days in total) that cancellation reliably lands mid-run on a
// 1-worker session.
const slowSpec = `{
	"name": "slow",
	"events": 200,
	"traces": [{"name": "s", "kind": "solar", "seconds": 86400, "peakPower": 0.05}],
	"exits": [{"name": "q", "mode": 0, "warmup": 200}],
	"seeds": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]
}`

func newTestServer(t *testing.T, workers int) (*Server, *httptest.Server) {
	t.Helper()
	sv := New(WithSession(ehinfer.NewSession(ehinfer.WithWorkers(workers))))
	ts := httptest.NewServer(sv)
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = sv.Shutdown(ctx)
	})
	return sv, ts
}

func postJSON(t *testing.T, url, body string) map[string]any {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode >= 400 {
		t.Fatalf("POST %s: %d %v", url, resp.StatusCode, out)
	}
	return out
}

func getStatus(t *testing.T, base, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/grids/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitState(t *testing.T, base, id string, want JobState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, base, id)
		if st.State == want {
			return st
		}
		if st.State != StateRunning && want != st.State {
			t.Fatalf("job %s reached terminal state %q while waiting for %q (err: %s)", id, st.State, want, st.Err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q", id, want)
	return JobStatus{}
}

// TestServeGridEndToEnd drives the full submit → poll → fetch flow and
// pins that the served result bytes equal a direct Session run of the
// same spec — the HTTP layer adds transport, not semantics.
func TestServeGridEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, 2)

	sub := postJSON(t, ts.URL+"/v1/grids", fastSpec)
	id, _ := sub["id"].(string)
	if id == "" {
		t.Fatalf("submit returned no id: %v", sub)
	}
	if pts, _ := sub["points"].(float64); pts != 4 {
		t.Fatalf("want 4 points, got %v", sub["points"])
	}

	st := waitState(t, ts.URL, id, StateDone)
	if st.Completed != 4 || st.Total != 4 {
		t.Fatalf("done job reports %d/%d", st.Completed, st.Total)
	}
	if st.Workers != 2 {
		t.Fatalf("resolved workers not surfaced: %+v", st)
	}
	if st.PointErrs != 0 {
		t.Fatalf("point errors: %+v", st)
	}

	// Aggregated results: deterministic bytes, equal to a direct run.
	resp, err := http.Get(ts.URL + "/v1/grids/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	body := new(strings.Builder)
	if _, err := bufio.NewReader(resp.Body).WriteTo(body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results: %d %s", resp.StatusCode, body.String())
	}

	var spec ehinfer.GridSpec
	if err := json.Unmarshal([]byte(fastSpec), &spec); err != nil {
		t.Fatal(err)
	}
	grid, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := ehinfer.NewSession(ehinfer.WithWorkers(1)).RunGrid(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	directJSON, err := direct.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if body.String() != string(directJSON) {
		t.Fatal("served result bytes differ from a direct Session run of the same spec")
	}

	// NDJSON view after completion: one line per point plus a summary.
	resp, err = http.Get(ts.URL + "/v1/grids/" + id + "/results?format=ndjson")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 5 {
		t.Fatalf("want 4 point lines + 1 summary, got %d", len(lines))
	}
	var summary map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
		t.Fatal(err)
	}
	if summary["done"] != true || summary["state"] != string(StateDone) {
		t.Fatalf("bad summary line: %v", summary)
	}
}

// TestServeStreamingSubmitCancelAbortsWorkers pins the acceptance
// criterion: canceling the request context of a streaming submission
// aborts the grid's workers promptly.
func TestServeStreamingSubmitCancelAbortsWorkers(t *testing.T) {
	_, ts := newTestServer(t, 1)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/grids?stream=1", strings.NewReader(slowSpec))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Read the first streamed point, then hang up.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatalf("no first line: %v", sc.Err())
	}
	start := time.Now()
	cancel()

	st := waitState(t, ts.URL, "g1", StateCanceled)
	if st.Completed >= st.Total {
		t.Fatalf("grid finished despite cancellation: %+v", st)
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("cancellation took %v — not prompt", elapsed)
	}
}

// TestServeDeleteCancelsJob: DELETE aborts an async job mid-run.
func TestServeDeleteCancelsJob(t *testing.T) {
	_, ts := newTestServer(t, 1)

	sub := postJSON(t, ts.URL+"/v1/grids", slowSpec)
	id := sub["id"].(string)

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/grids/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE: %d", resp.StatusCode)
	}
	st := waitState(t, ts.URL, id, StateCanceled)
	if st.Completed >= st.Total {
		t.Fatalf("grid finished despite DELETE: %+v", st)
	}
}

func TestServeRejectsBadInput(t *testing.T) {
	_, ts := newTestServer(t, 1)
	for _, body := range []string{
		`{not json`,
		`{"devices": ["Z80"]}`,
		`{"unknownField": 1}`,
		fastSpec + ` garbage`,
		fastSpec + `}`,
		fastSpec + `{"garbage": true}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/grids", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("spec %q: want 400, got %d", body, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/grids/g999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: want 404, got %d", resp.StatusCode)
	}
}

// TestServeResultsConflictWhileRunning: the aggregated-results endpoint
// refuses mid-run fetches with 409 and points at the streaming view.
func TestServeResultsConflictWhileRunning(t *testing.T) {
	_, ts := newTestServer(t, 1)
	sub := postJSON(t, ts.URL+"/v1/grids", slowSpec)
	id := sub["id"].(string)

	resp, err := http.Get(ts.URL + "/v1/grids/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mid-run results fetch: want 409, got %d", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/grids/"+id, nil)
	if dresp, err := http.DefaultClient.Do(req); err == nil {
		dresp.Body.Close()
	}
	waitState(t, ts.URL, id, StateCanceled)
}

// TestServeShutdownCancelsJobs: graceful shutdown aborts running grids
// and drains within the deadline.
func TestServeShutdownCancelsJobs(t *testing.T) {
	sv := New(WithSession(ehinfer.NewSession(ehinfer.WithWorkers(1))))
	ts := httptest.NewServer(sv)
	defer ts.Close()

	sub := postJSON(t, ts.URL+"/v1/grids", slowSpec)
	id := sub["id"].(string)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := sv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	j := sv.lookup(id)
	if j == nil {
		t.Fatal("job vanished")
	}
	if _, state := j.finalResult(); state != StateCanceled && state != StateDone {
		t.Fatalf("after shutdown job is %q", state)
	}

	// New submissions are refused once shut down.
	resp, err := http.Post(ts.URL+"/v1/grids", "application/json", strings.NewReader(fastSpec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown submit: want 503, got %d", resp.StatusCode)
	}
}
