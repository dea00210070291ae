package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	ehinfer "repro"
	"repro/internal/store"
)

// durableServer builds a server over a store rooted at dir. Unlike
// newHTTPServer it does not register cleanup shutdown — restart tests
// shut down explicitly to model the boot/stop cycle.
func durableServer(t *testing.T, dir string, workers int) (*Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	sv := New(
		WithSession(ehinfer.NewSession(ehinfer.WithWorkers(workers))),
		WithStore(st),
	)
	ts := httptest.NewServer(sv)
	return sv, ts
}

func shutdownServer(t *testing.T, sv *Server, ts *httptest.Server) {
	t.Helper()
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := sv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func download(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/artifacts/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("download %s: status %d", id, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestArtifactsPersistAcrossRestart: uploaded artifacts come back after
// a restart under the same IDs with identical bytes, deletes are
// durable, and the ID sequence does not reuse old names.
func TestArtifactsPersistAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	a1 := encodeTestArtifact(t, "persist-one")
	a2 := encodeTestArtifact(t, "persist-two")

	sv, ts := durableServer(t, dir, 1)
	id1 := uploadArtifact(t, ts.URL, a1)
	id2 := uploadArtifact(t, ts.URL, a2)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/artifacts/"+id2, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	shutdownServer(t, sv, ts)

	sv2, ts2 := durableServer(t, dir, 1)
	defer shutdownServer(t, sv2, ts2)
	if got := download(t, ts2.URL, id1); !bytes.Equal(got, a1) {
		t.Fatalf("artifact %s changed across restart: %d vs %d bytes", id1, len(got), len(a1))
	}
	if code, _ := getBody(t, ts2.URL+"/v1/artifacts/"+id2); code != http.StatusNotFound {
		t.Fatalf("deleted artifact %s resurrected: %d", id2, code)
	}
	// The restored sequence continues past the highest stored ID even
	// though id2 was deleted — IDs are never reused.
	id3 := uploadArtifact(t, ts2.URL, encodeTestArtifact(t, "persist-three"))
	if id3 == id1 || id3 == id2 {
		t.Fatalf("restart reused artifact id %s", id3)
	}
	// Recovery is visible in metrics.
	_, metrics := getBody(t, ts2.URL+"/metrics")
	if !strings.Contains(metrics, mArtifactRecovery+`{outcome="restored"} 1`) {
		t.Fatalf("restore not counted:\n%s", grepMetrics(metrics, mArtifactRecovery))
	}
	// Inference against the restored artifact works end to end.
	if code, _ := postInfer(t, ts2.URL, inferBody(id1, 1)); code != http.StatusOK {
		t.Fatalf("infer against restored artifact: %d", code)
	}
}

// TestQuarantinedArtifactNotServed: a corrupted artifact file is
// quarantined at boot and counted, while healthy artifacts keep
// serving.
func TestQuarantinedArtifactNotServed(t *testing.T) {
	dir := t.TempDir()
	good := encodeTestArtifact(t, "survivor")

	sv, ts := durableServer(t, dir, 1)
	goodID := uploadArtifact(t, ts.URL, good)
	badID := uploadArtifact(t, ts.URL, encodeTestArtifact(t, "victim"))
	shutdownServer(t, sv, ts)

	// Corrupt the second artifact on disk: truncate to half.
	path := filepath.Join(dir, "artifacts", badID+".ehar")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	sv2, ts2 := durableServer(t, dir, 1)
	defer shutdownServer(t, sv2, ts2)
	if got := download(t, ts2.URL, goodID); !bytes.Equal(got, good) {
		t.Fatal("healthy artifact damaged by recovery")
	}
	if code, _ := getBody(t, ts2.URL+"/v1/artifacts/"+badID); code != http.StatusNotFound {
		t.Fatalf("corrupt artifact served: %d", code)
	}
	_, metrics := getBody(t, ts2.URL+"/metrics")
	if !strings.Contains(metrics, mArtifactRecovery+`{outcome="undecodable"} 1`) &&
		!strings.Contains(metrics, mArtifactRecovery+`{outcome="quarantined"} 1`) {
		t.Fatalf("corruption not counted:\n%s", grepMetrics(metrics, mArtifactRecovery))
	}
}

// TestFinishedJobRestoredAcrossRestart: a finished grid job's final
// document survives a restart byte-identically, and its status reads
// done.
func TestFinishedJobRestoredAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	sv, ts := durableServer(t, dir, 2)
	sub := postJSON(t, ts.URL+"/v1/grids", fastSpec)
	id := sub["id"].(string)
	waitState(t, ts.URL, id, StateDone)
	code, want := getBody(t, ts.URL+"/v1/grids/"+id+"/results")
	if code != http.StatusOK {
		t.Fatalf("results before restart: %d", code)
	}
	shutdownServer(t, sv, ts)

	sv2, ts2 := durableServer(t, dir, 2)
	defer shutdownServer(t, sv2, ts2)
	st := getStatus(t, ts2.URL, id)
	if st.State != StateDone {
		t.Fatalf("restored job state = %q, want done", st.State)
	}
	code, got := getBody(t, ts2.URL+"/v1/grids/"+id+"/results")
	if code != http.StatusOK {
		t.Fatalf("results after restart: %d", code)
	}
	if got != want {
		t.Fatalf("final document changed across restart:\nbefore: %s\nafter:  %s", want, got)
	}
}

// TestUnfinishedJobResumesAcrossRestart is the crash-recovery
// centerpiece: a job interrupted mid-run by shutdown resumes on the
// next boot from its journal — restored points are not re-run — and the
// final document is byte-identical to an uninterrupted run of the same
// spec.
func TestUnfinishedJobResumesAcrossRestart(t *testing.T) {
	// The reference: the same spec run start-to-finish on a store-less
	// server. The determinism contract says any interleaving of restore
	// + re-run must reproduce these bytes exactly.
	_, ref := newTestServer(t, 1)
	refSub := postJSON(t, ref.URL+"/v1/grids", slowSpec)
	refID := refSub["id"].(string)
	waitState(t, ref.URL, refID, StateDone)
	_, want := getBody(t, ref.URL+"/v1/grids/"+refID+"/results")

	dir := t.TempDir()
	sv, ts := durableServer(t, dir, 1)
	sub := postJSON(t, ts.URL+"/v1/grids", slowSpec)
	id := sub["id"].(string)

	// Wait until the journal holds at least one point but the run is not
	// done, then stop the server mid-job.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := getStatus(t, ts.URL, id)
		if st.Completed >= 1 && st.State == StateRunning {
			break
		}
		if st.State == StateDone {
			t.Skip("grid finished before the shutdown could interrupt it")
		}
		if time.Now().After(deadline) {
			t.Fatal("job never completed a point")
		}
		time.Sleep(5 * time.Millisecond)
	}
	shutdownServer(t, sv, ts)

	sv2, ts2 := durableServer(t, dir, 1)
	defer shutdownServer(t, sv2, ts2)
	st := getStatus(t, ts2.URL, id)
	if st.State != StateRunning && st.State != StateDone {
		t.Fatalf("resumed job state = %q (err %s)", st.State, st.Err)
	}
	waitState(t, ts2.URL, id, StateDone)
	code, got := getBody(t, ts2.URL+"/v1/grids/"+id+"/results")
	if code != http.StatusOK {
		t.Fatalf("resumed results: %d", code)
	}
	if got != want {
		t.Fatalf("resumed run diverged from uninterrupted reference:\nref: %d bytes\ngot: %d bytes", len(want), len(got))
	}
	_, metrics := getBody(t, ts2.URL+"/metrics")
	if !strings.Contains(metrics, mJobsResumed+" 1") {
		t.Fatalf("resume not counted:\n%s", grepMetrics(metrics, mJobsResumed))
	}
	if !strings.Contains(metrics, mJobPointsRestored) {
		t.Fatalf("restored points not counted:\n%s", grepMetrics(metrics, mJobPointsRestored))
	}

	// The journal is finalized: a third boot serves the job as finished
	// without resuming anything.
	shutdownServer(t, sv2, ts2)
	sv3, ts3 := durableServer(t, dir, 1)
	defer shutdownServer(t, sv3, ts3)
	if st := getStatus(t, ts3.URL, id); st.State != StateDone {
		t.Fatalf("third boot job state = %q", st.State)
	}
	_, got3 := getBody(t, ts3.URL+"/v1/grids/"+id+"/results")
	if got3 != want {
		t.Fatal("final document drifted on the finalized boot")
	}
}

// TestCanceledJobNotResumed: DELETE aborts the journal, so the next
// boot does not resurrect a job the operator killed.
func TestCanceledJobNotResumed(t *testing.T) {
	dir := t.TempDir()
	sv, ts := durableServer(t, dir, 1)
	sub := postJSON(t, ts.URL+"/v1/grids", slowSpec)
	id := sub["id"].(string)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/grids/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, ts.URL, id, StateCanceled)
	shutdownServer(t, sv, ts)

	sv2, ts2 := durableServer(t, dir, 1)
	defer shutdownServer(t, sv2, ts2)
	if code, _ := getBody(t, ts2.URL+"/v1/grids/"+id); code != http.StatusNotFound {
		t.Fatalf("canceled job came back: %d", code)
	}
	_, metrics := getBody(t, ts2.URL+"/metrics")
	if strings.Contains(metrics, mJobsResumed+" 1") {
		t.Fatal("canceled job was resumed")
	}
}

// TestStreamedJobJournal: a ?stream=1 job is journaled as an
// asynchronous one is. A client that leaves its stream cancels the job
// and removes the journal, as DELETE does, so the next boot does not
// know the job; a shutdown keeps the journal, and the next boot resumes
// the job.
func TestStreamedJobJournal(t *testing.T) {
	for _, clientLeaves := range []bool{true, false} {
		dir := t.TempDir()
		sv, ts := durableServer(t, dir, 1)
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/grids?stream=1", strings.NewReader(slowSpec))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		journal := filepath.Join(dir, "jobs", "g1.journal")
		if _, err := os.Stat(journal); err != nil {
			t.Fatalf("streamed job has no journal once its stream started: %v", err)
		}
		if clientLeaves {
			cancel()
			resp.Body.Close()
			waitState(t, ts.URL, "g1", StateCanceled)
			if _, err := os.Stat(journal); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("a client leaving its stream kept the journal: %v", err)
			}
			shutdownServer(t, sv, ts)
		} else {
			sctx, scancel := context.WithTimeout(context.Background(), 20*time.Second)
			if err := sv.Shutdown(sctx); err != nil {
				t.Fatalf("shutdown: %v", err)
			}
			scancel()
			resp.Body.Close()
			cancel()
			ts.Close()
			if _, err := os.Stat(journal); err != nil {
				t.Fatalf("a shutdown dropped the streamed job's journal: %v", err)
			}
		}

		sv2, ts2 := durableServer(t, dir, 1)
		code, body := getBody(t, ts2.URL+"/v1/grids/g1")
		shutdownServer(t, sv2, ts2)
		switch {
		case clientLeaves && code != http.StatusNotFound:
			t.Fatalf("a job its streaming client left came back: %d %s", code, body)
		case !clientLeaves && (code != http.StatusOK || !strings.Contains(body, `"state":"running"`)):
			t.Fatalf("a streamed job stopped by shutdown was not resumed: %d %s", code, body)
		}
	}
}

// TestJournalWithoutTraceSeedsNotResumed: a grid journal whose point
// lines carry no replicateSeed was written before a replicate's points
// shared their trace, schedule and baseline rows: with no seed field,
// when every point built its own trace, or with a traceSeed, when only
// the trace was shared. Resuming either would mix two semantics in one
// document, so the next boot drops the journal: the job answers 404 and
// its journal is gone.
func TestJournalWithoutTraceSeedsNotResumed(t *testing.T) {
	var spec ehinfer.GridSpec
	if err := json.Unmarshal([]byte(fastSpec), &spec); err != nil {
		t.Fatal(err)
	}
	grid, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ehinfer.NewSession(ehinfer.WithWorkers(1)).RunGrid(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	header, err := json.Marshal(&spec)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		// old rewrites a point's JSON fields the way the older journal
		// wrote them.
		old func(point map[string]json.RawMessage)
	}{
		{"no seed field", func(point map[string]json.RawMessage) {
			delete(point, "replicateSeed")
		}},
		{"trace seed only", func(point map[string]json.RawMessage) {
			point["traceSeed"] = point["replicateSeed"]
			delete(point, "replicateSeed")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			journal, err := st.NewJobJournal("g1", header)
			if err != nil {
				t.Fatal(err)
			}
			// Journal the first half of the points, each its replicate's
			// lowest, so its seed values match the spec's.
			for _, r := range res.Results[:len(res.Results)/2] {
				line, err := json.Marshal(r)
				if err != nil {
					t.Fatal(err)
				}
				var fields, point map[string]json.RawMessage
				if err := json.Unmarshal(line, &fields); err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(fields["point"], &point); err != nil {
					t.Fatal(err)
				}
				tc.old(point)
				if fields["point"], err = json.Marshal(point); err != nil {
					t.Fatal(err)
				}
				if line, err = json.Marshal(fields); err != nil {
					t.Fatal(err)
				}
				if err := journal.Append(line); err != nil {
					t.Fatal(err)
				}
			}
			if err := journal.Close(); err != nil {
				t.Fatal(err)
			}

			sv, ts := durableServer(t, dir, 1)
			defer shutdownServer(t, sv, ts)
			if code, body := getBody(t, ts.URL+"/v1/grids/g1"); code != http.StatusNotFound {
				t.Fatalf("journal without replicate seeds resumed: %d %s", code, body)
			}
			if _, err := os.Stat(filepath.Join(dir, "jobs", "g1.journal")); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("refused journal still on disk: %v", err)
			}
		})
	}
}
