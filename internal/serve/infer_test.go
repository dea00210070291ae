package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	ehinfer "repro"
	"repro/internal/batch"
)

// uploadArtifact posts an artifact and returns its id.
func uploadArtifact(t *testing.T, base string, data []byte) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/artifacts", "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d", resp.StatusCode)
	}
	var st artifactStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.ID
}

// inferBody builds an infer request against an artifact with n valid
// 3072-value inputs.
func inferBody(artifact string, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"artifact":%q,"inputs":[`, artifact)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('[')
		for j := 0; j < 3072; j++ {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%.3f", float64((i+j)%7)/7)
		}
		b.WriteByte(']')
	}
	b.WriteString(`]}`)
	return b.String()
}

// postInfer posts a raw body to /v1/infer and returns status + decoded
// body.
func postInfer(t *testing.T, base, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(base+"/v1/infer", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("status %d: %v", resp.StatusCode, err)
	}
	return resp.StatusCode, out
}

// TestServeInferEndToEnd uploads an artifact, infers against it (single
// input and batch), and checks the response shape and the /v1/stats
// accounting.
func TestServeInferEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, 1)
	id := uploadArtifact(t, ts.URL, encodeTestArtifact(t, "infer-e2e"))

	// Batch of 3.
	code, out := postInfer(t, ts.URL, inferBody(id, 3))
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, out)
	}
	preds, ok := out["predictions"].([]any)
	if !ok || len(preds) != 3 {
		t.Fatalf("predictions = %v", out["predictions"])
	}
	if out["backend"] != "plan" || out["model"] != "artifact:"+id {
		t.Fatalf("backend/model = %v/%v", out["backend"], out["model"])
	}
	first := preds[0].(map[string]any)
	cls := int(first["class"].(float64))
	exits := int(out["exits"].(float64))
	if cls < 0 || cls >= 10 {
		t.Fatalf("class %d out of range", cls)
	}
	if exit := int(first["exit"].(float64)); exit != exits-1 {
		t.Fatalf("default exit %d, want deepest %d", exit, exits-1)
	}
	confs := first["exitConfidences"].([]any)
	if len(confs) != exits {
		t.Fatalf("%d exit confidences for %d exits", len(confs), exits)
	}

	// Single "input" form with an exit bound and a threshold.
	single := strings.Replace(inferBody(id, 1), `"inputs":[[`, `"input":[`, 1)
	single = strings.Replace(single, `]]}`, `],"exit":1,"threshold":0.000001}`, 1)
	code, out = postInfer(t, ts.URL, single)
	if code != http.StatusOK {
		t.Fatalf("single input: status %d: %v", code, out)
	}
	pred := out["predictions"].([]any)[0].(map[string]any)
	if exit := int(pred["exit"].(float64)); exit != 0 {
		t.Fatalf("tiny threshold took exit %d, want 0", exit)
	}

	// Stats reflect the served requests.
	st := getJSON(t, ts.URL+"/v1/stats")
	infer := st["infer"].(map[string]any)["artifact:"+id].(map[string]any)
	q := infer["queue"].(map[string]any)
	if served := q["served"].(float64); served != 4 {
		t.Fatalf("served = %v, want 4", served)
	}
	if infer["backend"] != "plan" || int(infer["inputLen"].(float64)) != 3072 {
		t.Fatalf("stats model block: %v", infer)
	}
	if st["totals"].(map[string]any)["served"].(float64) != 4 {
		t.Fatalf("totals: %v", st["totals"])
	}
}

// TestServeInferDeterministic: the same input must produce the same
// prediction whether it rides alone or in a batch, and across repeats —
// the serving counterpart of the plan parity gate.
func TestServeInferDeterministic(t *testing.T) {
	_, ts := newTestServer(t, 1)
	id := uploadArtifact(t, ts.URL, encodeTestArtifact(t, "infer-det"))

	_, solo := postInfer(t, ts.URL, inferBody(id, 1))
	for round := 0; round < 2; round++ {
		_, batched := postInfer(t, ts.URL, inferBody(id, 3))
		got := batched["predictions"].([]any)[0]
		want := solo["predictions"].([]any)[0]
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if !bytes.Equal(gj, wj) {
			t.Fatalf("round %d: batched prediction %s differs from solo %s", round, gj, wj)
		}
	}
}

// TestServeInferBackendSelection: a request naming a backend is served
// on that backend — its own target, keyed by (model, backend) — and the
// response echoes the canonical backend name. The packed-weight
// int8fast path answers with the same response shape as the default
// plan backend.
func TestServeInferBackendSelection(t *testing.T) {
	_, ts := newTestServer(t, 1)
	id := uploadArtifact(t, ts.URL, encodeTestArtifact(t, "infer-backend"))

	withBackend := func(body, backend string) string {
		return strings.Replace(body, `{"artifact"`, `{"backend":"`+backend+`","artifact"`, 1)
	}
	for _, backend := range []string{"int8fast", "int8"} {
		code, out := postInfer(t, ts.URL, withBackend(inferBody(id, 2), backend))
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %v", backend, code, out)
		}
		if out["backend"] != backend {
			t.Fatalf("%s request answered by backend %v", backend, out["backend"])
		}
		if out["model"] != "artifact:"+id+"@"+backend {
			t.Fatalf("%s target key = %v", backend, out["model"])
		}
		preds := out["predictions"].([]any)
		if len(preds) != 2 {
			t.Fatalf("%s: predictions = %v", backend, out["predictions"])
		}
		p := preds[0].(map[string]any)
		if p["backend"] != backend {
			t.Fatalf("%s: prediction backend = %v", backend, p["backend"])
		}
		if cls := int(p["class"].(float64)); cls < 0 || cls >= 10 {
			t.Fatalf("%s: class %d out of range", backend, cls)
		}
	}
	// The float32 alias resolves to the canonical "plan" target.
	code, out := postInfer(t, ts.URL, withBackend(inferBody(id, 1), "float32"))
	if code != http.StatusOK || out["backend"] != "plan" || out["model"] != "artifact:"+id+"@plan" {
		t.Fatalf("float32 alias: status %d, backend %v, model %v", code, out["backend"], out["model"])
	}
	// Unknown backends are client errors.
	if code, _ := postInfer(t, ts.URL, withBackend(inferBody(id, 1), "cuda")); code != http.StatusBadRequest {
		t.Fatalf("unknown backend: status %d, want 400", code)
	}
}

// TestServeInferBadRequests is the satellite's table: every malformed
// payload must come back 400/404 with a JSON error — never a panic, a
// hang, or a 500.
func TestServeInferBadRequests(t *testing.T) {
	_, ts := newTestServer(t, 1)
	id := uploadArtifact(t, ts.URL, encodeTestArtifact(t, "infer-bad"))

	okInput := inferBody(id, 1)
	short := fmt.Sprintf(`{"artifact":%q,"input":[0.1,0.2,0.3]}`, id)
	nan := fmt.Sprintf(`{"artifact":%q,"inputs":[[%s]]}`, id, strings.TrimSuffix(strings.Repeat("0.1,", 3071), ",")+",NaN")

	cases := []struct {
		name string
		body string
		code int
	}{
		{"not json", `this is not json`, http.StatusBadRequest},
		{"unknown field", `{"artifact":"a1","frobnicate":1}`, http.StatusBadRequest},
		{"no model reference", `{"input":[0.1]}`, http.StatusBadRequest},
		{"both model references", `{"artifact":"a1","deployment":"x","input":[0.1]}`, http.StatusBadRequest},
		{"unknown artifact", `{"artifact":"a999","input":[0.1]}`, http.StatusNotFound},
		{"unknown deployment", `{"deployment":"no-such-deployment","input":[0.1]}`, http.StatusNotFound},
		{"empty batch", fmt.Sprintf(`{"artifact":%q,"inputs":[]}`, id), http.StatusBadRequest},
		{"no inputs at all", fmt.Sprintf(`{"artifact":%q}`, id), http.StatusBadRequest},
		{"both input and inputs", fmt.Sprintf(`{"artifact":%q,"input":[0.1],"inputs":[[0.1]]}`, id), http.StatusBadRequest},
		{"wrong shape", short, http.StatusBadRequest},
		{"NaN is not JSON", nan, http.StatusBadRequest},
		{"negative exit", strings.Replace(okInput, `]]}`, `]],"exit":-2}`, 1), http.StatusBadRequest},
		{"exit too deep", strings.Replace(okInput, `]]}`, `]],"exit":9}`, 1), http.StatusBadRequest},
		{"bad threshold", strings.Replace(okInput, `]]}`, `]],"threshold":2}`, 1), http.StatusBadRequest},
		{"trailing word", okInput + " garbage", http.StatusBadRequest},
		{"trailing brace", okInput + "}", http.StatusBadRequest},
		{"second object", okInput + `{"artifact":"a1"}`, http.StatusBadRequest},
		{"null pixel in input", strings.Replace(strings.Replace(okInput, `"inputs":[[0.000,`, `"input":[null,`, 1), `]]}`, `]}`, 1), http.StatusBadRequest},
		{"null pixel in inputs", strings.Replace(okInput, `[[0.000,`, `[[null,`, 1), http.StatusBadRequest},
	}
	for _, tc := range cases {
		code, out := postInfer(t, ts.URL, tc.body)
		if code != tc.code {
			t.Errorf("%s: status %d, want %d (%v)", tc.name, code, tc.code, out)
			continue
		}
		if msg, _ := out["error"].(string); msg == "" {
			t.Errorf("%s: no error message in %v", tc.name, out)
		}
	}

	// The daemon must still be healthy after the whole gauntlet.
	if code, out := postInfer(t, ts.URL, okInput); code != http.StatusOK {
		t.Fatalf("server unhealthy after bad requests: %d %v", code, out)
	}
}

// slowArtifact encodes a deployment whose single inference costs tens
// of milliseconds (fat convolutions at 64×64), so a tiny queue reliably
// congests while the worker is pinned on the first dispatch.
func slowArtifact(t *testing.T) []byte {
	t.Helper()
	b := ehinfer.NewNetworkBuilder(3, 64, 64, 10)
	b.Conv("c1", 48, 3, 1, 1).ReLU()
	b.Exit("e1", 0)
	b.Conv("c2", 48, 3, 1, 1).ReLU().MaxPool(2, 2)
	b.Exit("e2", 0)
	net, err := b.Build(ehinfer.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	d, err := ehinfer.NewDeployed(net, []float64{0.5, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ehinfer.EncodeDeployed(&buf, &ehinfer.DeploymentBundle{Name: "slow", Deployed: d}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServeInferBackpressure shrinks the queue to force 429s under
// concurrent fire, and checks every response is either an answer or a
// clean 429.
func TestServeInferBackpressure(t *testing.T) {
	// Single-input requests against a cap-2 queue on a deliberately slow
	// model: the first request to reach the queue always lands (so
	// ok >= 1 is structural), and while the worker is pinned on the
	// first ~100ms dispatch the remaining clients hit the 2-slot channel
	// and shed. Multi-input requests would be all-or-nothing per request
	// and could 429 across the board under total overload.
	sv := New(WithSession(ehinfer.NewSession(ehinfer.WithWorkers(1))),
		WithBatchConfig(batch.Config{MaxBatch: 2, Window: time.Millisecond, QueueCap: 2}))
	ts := newHTTPServer(t, sv)
	id := uploadArtifact(t, ts, slowArtifact(t))

	const clients = 16
	vol := 3 * 64 * 64
	var in strings.Builder
	fmt.Fprintf(&in, `{"artifact":%q,"input":[`, id)
	for j := 0; j < vol; j++ {
		if j > 0 {
			in.WriteByte(',')
		}
		in.WriteString("0.25")
	}
	in.WriteString(`]}`)
	body := in.String()

	var wg sync.WaitGroup
	codes := make(chan int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts+"/v1/infer", "application/json", strings.NewReader(body))
			if err != nil {
				codes <- -1
				return
			}
			defer resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	wg.Wait()
	close(codes)
	var ok, shed int
	for c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Fatalf("unexpected status %d", c)
		}
	}
	if ok == 0 {
		t.Fatal("no request succeeded")
	}
	if shed == 0 {
		t.Fatal("queue bound never produced a 429")
	}
	st := getJSON(t, ts+"/v1/stats")
	if st["totals"].(map[string]any)["rejected"].(float64) == 0 {
		t.Fatal("stats did not count rejections")
	}
}

// TestServeInferDeploymentAndDelete covers the registered-deployment
// reference and queue teardown on artifact delete.
func TestServeInferDeploymentAndDelete(t *testing.T) {
	_, ts := newTestServer(t, 1)

	// Register a deployment under a unique name and infer against it.
	session := ehinfer.NewSession(ehinfer.WithSeed(5))
	d, err := session.BuildDeployed(ehinfer.Fig1bNonuniform())
	if err != nil {
		t.Fatal(err)
	}
	if err := ehinfer.RegisterDeployment("serve-infer-test-dep", d); err != nil {
		t.Fatal(err)
	}
	body := strings.Replace(inferBody("X", 1), fmt.Sprintf(`"artifact":%q`, "X"), `"deployment":"serve-infer-test-dep"`, 1)
	code, out := postInfer(t, ts.URL, body)
	if code != http.StatusOK || out["model"] != "deployment:serve-infer-test-dep" {
		t.Fatalf("deployment infer: %d %v", code, out)
	}

	// Upload, infer, delete: the target disappears and later requests 404.
	id := uploadArtifact(t, ts.URL, encodeTestArtifact(t, "infer-del"))
	if code, _ := postInfer(t, ts.URL, inferBody(id, 1)); code != http.StatusOK {
		t.Fatalf("pre-delete infer failed: %d", code)
	}
	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/artifacts/"+id, nil)
	if resp, err := http.DefaultClient.Do(delReq); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %v %v", err, resp.Status)
	}
	if code, _ := postInfer(t, ts.URL, inferBody(id, 1)); code != http.StatusNotFound {
		t.Fatalf("post-delete infer: %d, want 404", code)
	}
}

// newHTTPServer wraps a prebuilt Server in httptest with cleanup.
func newHTTPServer(t *testing.T, sv *Server) string {
	t.Helper()
	ts := httptest.NewServer(sv)
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = sv.Shutdown(ctx)
	})
	return ts.URL
}
