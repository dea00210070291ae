package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
)

// fastFleetSpec is a two-population fleet that finishes in well under a
// second on one worker.
const fastFleetSpec = `{
	"name": "fleet-e2e",
	"baseSeed": 11,
	"epochs": 4,
	"events": 8,
	"populations": [
		{"name": "solar-q", "count": 24, "traceVariants": 3},
		{"name": "static", "count": 16, "exit": {"mode": 1}, "traceVariants": 3}
	]
}`

// slowFleetSpec has enough epochs that a shutdown reliably lands mid-run
// on a 1-worker session while snapshots land in the journal every epoch.
const slowFleetSpec = `{
	"name": "fleet-slow",
	"baseSeed": 5,
	"epochs": 60,
	"snapshotEvery": 1,
	"events": 120,
	"populations": [
		{"name": "pop", "count": 512, "traceVariants": 8}
	]
}`

func getFleetStatus(t *testing.T, base, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/fleets/" + id)
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

func waitFleetState(t *testing.T, base, id string, want JobState) JobStatus {
	t.Helper()
	deadline := pollDeadline(t)
	for {
		st := getFleetStatus(t, base, id)
		if st.State == want {
			return st
		}
		if st.State != StateRunning && want != st.State {
			t.Fatalf("fleet %s reached terminal state %q while waiting for %q (err: %s)", id, st.State, want, st.Err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet %s never reached state %q", id, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// pollDeadline is when a fleet poll gives up: the test binary's own
// deadline less a margin for cleanup, so a slow run (the race detector,
// a loaded host) waits as long as the run allows and still fails
// cleanly; 30 s from now when the run has no deadline.
func pollDeadline(t *testing.T) time.Time {
	if d, ok := t.Deadline(); ok {
		return d.Add(-15 * time.Second)
	}
	return time.Now().Add(30 * time.Second)
}

// directFleetRun executes the spec straight on the engine — the
// reference bytes the HTTP layer must reproduce.
func directFleetRun(t *testing.T, specJSON string) []byte {
	t.Helper()
	var spec fleet.Spec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		t.Fatalf("spec: %v", err)
	}
	f, err := spec.Fleet()
	if err != nil {
		t.Fatalf("Fleet: %v", err)
	}
	e := fleet.Engine{Workers: 1}
	res, err := e.Run(context.Background(), f)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	return data
}

// TestServeFleetEndToEnd drives submit → poll → fetch and pins that the
// served document equals a direct engine run of the same spec.
func TestServeFleetEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, 2)

	sub := postJSON(t, ts.URL+"/v1/fleets", fastFleetSpec)
	id, _ := sub["id"].(string)
	if id == "" || !strings.HasPrefix(id, "f") {
		t.Fatalf("submit returned bad id: %v", sub)
	}
	if sub["devices"].(float64) != 40 {
		t.Fatalf("submit reported %v devices, want 40", sub["devices"])
	}
	waitFleetState(t, ts.URL, id, StateDone)

	code, got := getBody(t, ts.URL+"/v1/fleets/"+id+"/results")
	if code != http.StatusOK {
		t.Fatalf("results: %d", code)
	}
	want := directFleetRun(t, fastFleetSpec)
	if got != string(want) {
		t.Fatalf("served fleet document differs from direct engine run:\nserved %d bytes, direct %d bytes", len(got), len(want))
	}

	// Status and the fleet listing agree the run is done.
	st := getFleetStatus(t, ts.URL, id)
	if st.Completed != st.Total || st.Total != 4 {
		t.Fatalf("status counts wrong: %+v", st)
	}
	code, list := getBody(t, ts.URL+"/v1/fleets")
	if code != http.StatusOK || !strings.Contains(list, `"`+id+`"`) {
		t.Fatalf("fleet listing missing %s: %d %s", id, code, list)
	}

	// Per-fleet metric families are live.
	_, metrics := getBody(t, ts.URL+"/metrics")
	for _, fam := range []string{mFleetSnapshots, mFleetEvents, mFleetDevices} {
		if !strings.Contains(metrics, fam+`{fleet="`+id+`"}`) {
			t.Fatalf("metric %s missing for fleet %s:\n%s", fam, id, grepMetrics(metrics, fam))
		}
	}
}

// TestServeFleetStream submits with ?stream=1 and checks one NDJSON line
// per snapshot plus a final summary line arrive on the request itself.
func TestServeFleetStream(t *testing.T) {
	_, ts := newTestServer(t, 2)
	resp, err := http.Post(ts.URL+"/v1/fleets?stream=1", "application/json", strings.NewReader(fastFleetSpec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	snaps := 0
	doneSeen := false
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line: %v", err)
		}
		if line["done"] == true {
			doneSeen = true
			if line["state"] != string(StateDone) {
				t.Fatalf("summary state %v", line["state"])
			}
			continue
		}
		if _, ok := line["epoch"]; !ok {
			t.Fatalf("snapshot line missing epoch: %v", line)
		}
		snaps++
	}
	if snaps != 4 || !doneSeen {
		t.Fatalf("streamed %d snapshots (done=%v), want 4 + summary", snaps, doneSeen)
	}
}

// TestServeFleetFollowNDJSON tails an async fleet's snapshots via
// results?format=ndjson from submission to the summary line.
func TestServeFleetFollowNDJSON(t *testing.T) {
	_, ts := newTestServer(t, 2)
	sub := postJSON(t, ts.URL+"/v1/fleets", fastFleetSpec)
	id := sub["id"].(string)
	resp, err := http.Get(ts.URL + "/v1/fleets/" + id + "/results?format=ndjson")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	lines := 0
	for sc.Scan() {
		lines++
	}
	if lines != 5 { // 4 snapshots + summary
		t.Fatalf("followed %d lines, want 5", lines)
	}
}

// TestServeFleetCancel: DELETE lands mid-run and the job settles
// canceled with a partial snapshot count.
func TestServeFleetCancel(t *testing.T) {
	_, ts := newTestServer(t, 1)
	sub := postJSON(t, ts.URL+"/v1/fleets", slowFleetSpec)
	id := sub["id"].(string)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/fleets/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	st := waitFleetState(t, ts.URL, id, StateCanceled)
	if st.Completed >= st.Total {
		t.Fatalf("canceled fleet claims completion: %+v", st)
	}
}

// TestServeFleetBadSpecs: malformed and invalid specs answer 400 before
// any job exists.
func TestServeFleetBadSpecs(t *testing.T) {
	_, ts := newTestServer(t, 1)
	for _, body := range []string{
		`{not json`,
		`{"unknownField": 1}`,
		`{"populations": []}`,
		`{"populations": [{"name": "x", "count": 0}]}`,
		`{"populations": [{"name": "x", "count": 1, "device": "nope"}]}`,
		fastFleetSpec + ` garbage`,
		fastFleetSpec + `}`,
		fastFleetSpec + `{"garbage": true}`,
		`{"epochs":1,"events":4,"populations":[{"count":1,"energyBins":-1}]}`,
		`{"epochs":1,"events":4,"populations":[{"count":1,"powerBins":-2}]}`,
		`{"epochs":1,"events":4,"populations":[{"count":1,"confBins":-1}]}`,
		`{"epochs":1,"events":4,"populations":[{"count":1,"energyBins":1099511627776}]}`,
		`{"epochs":1,"events":4,"populations":[{"count":1,"alpha":-0.5}]}`,
		`{"epochs":1,"events":4,"populations":[{"count":1,"gamma":3}]}`,
		`{"epochs":1,"events":4,"populations":[{"count":1,"epsilon":-0.1}]}`,
		`{"epochs":1,"events":4,"populations":[{"count":1,"epsilon":2}]}`,
		`{"epochs":1,"events":4,"populations":[{"count":1,"trace":{"name":"x","kind":"solar","seconds":-1}}]}`,
		`{"epochs":1,"events":4,"populations":[{"count":1,"trace":{"name":"x","kind":"kinetic","seconds":-1}}]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/fleets", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("spec %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestServeJobsUnified: GET /v1/jobs lists grid and fleet jobs together
// with their kinds.
func TestServeJobsUnified(t *testing.T) {
	_, ts := newTestServer(t, 2)
	gid := postJSON(t, ts.URL+"/v1/grids", fastSpec)["id"].(string)
	fid := postJSON(t, ts.URL+"/v1/fleets", fastFleetSpec)["id"].(string)
	waitState(t, ts.URL, gid, StateDone)
	waitFleetState(t, ts.URL, fid, StateDone)

	code, body := getBody(t, ts.URL+"/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("jobs: %d", code)
	}
	var doc struct {
		Jobs []struct {
			Kind string   `json:"kind"`
			ID   string   `json:"id"`
			St   JobState `json:"state"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("jobs listing: %v", err)
	}
	kinds := map[string]string{}
	for _, j := range doc.Jobs {
		kinds[j.ID] = j.Kind
		if j.St != StateDone {
			t.Fatalf("job %s state %q", j.ID, j.St)
		}
	}
	if kinds[gid] != "grid" || kinds[fid] != "fleet" {
		t.Fatalf("kinds wrong: %v", kinds)
	}
}

// TestFleetResumesAcrossRestart is the fleet crash-recovery centerpiece:
// a fleet interrupted mid-run by shutdown resumes on the next boot from
// its journaled snapshots, and the final document is byte-identical to
// an uninterrupted run of the same spec.
func TestFleetResumesAcrossRestart(t *testing.T) {
	want := string(directFleetRun(t, slowFleetSpec))

	dir := t.TempDir()
	sv, ts := durableServer(t, dir, 1)
	sub := postJSON(t, ts.URL+"/v1/fleets", slowFleetSpec)
	id := sub["id"].(string)

	deadline := pollDeadline(t)
	for {
		st := getFleetStatus(t, ts.URL, id)
		if st.Completed >= 1 && st.State == StateRunning {
			break
		}
		if st.State == StateDone {
			t.Skip("fleet finished before the shutdown could interrupt it")
		}
		if time.Now().After(deadline) {
			t.Fatal("fleet never emitted a snapshot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	shutdownServer(t, sv, ts)

	sv2, ts2 := durableServer(t, dir, 1)
	defer shutdownServer(t, sv2, ts2)
	st := getFleetStatus(t, ts2.URL, id)
	if st.State != StateRunning && st.State != StateDone {
		t.Fatalf("resumed fleet state = %q (err %s)", st.State, st.Err)
	}
	waitFleetState(t, ts2.URL, id, StateDone)
	code, got := getBody(t, ts2.URL+"/v1/fleets/"+id+"/results")
	if code != http.StatusOK {
		t.Fatalf("resumed results: %d", code)
	}
	if got != want {
		t.Fatalf("resumed fleet diverged from uninterrupted reference:\nref %d bytes, got %d bytes", len(want), len(got))
	}
	_, metrics := getBody(t, ts2.URL+"/metrics")
	if !strings.Contains(metrics, mFleetsResumed+" 1") {
		t.Fatalf("resume not counted:\n%s", grepMetrics(metrics, mFleetsResumed))
	}
	if !strings.Contains(metrics, mFleetSnapshotsRestored) {
		t.Fatalf("restored snapshots not counted:\n%s", grepMetrics(metrics, mFleetSnapshotsRestored))
	}

	// The journal is finalized: a third boot serves the fleet as finished
	// without resuming anything.
	shutdownServer(t, sv2, ts2)
	sv3, ts3 := durableServer(t, dir, 1)
	defer shutdownServer(t, sv3, ts3)
	if st := getFleetStatus(t, ts3.URL, id); st.State != StateDone {
		t.Fatalf("third boot fleet state = %q", st.State)
	}
	_, got3 := getBody(t, ts3.URL+"/v1/fleets/"+id+"/results")
	if got3 != want {
		t.Fatal("final document drifted on the finalized boot")
	}
}

// TestCanceledFleetNotResumed: DELETE aborts the journal, so the next
// boot does not resurrect a fleet the operator killed.
func TestCanceledFleetNotResumed(t *testing.T) {
	dir := t.TempDir()
	sv, ts := durableServer(t, dir, 1)
	sub := postJSON(t, ts.URL+"/v1/fleets", slowFleetSpec)
	id := sub["id"].(string)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/fleets/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitFleetState(t, ts.URL, id, StateCanceled)
	shutdownServer(t, sv, ts)

	sv2, ts2 := durableServer(t, dir, 1)
	defer shutdownServer(t, sv2, ts2)
	if code, _ := getBody(t, ts2.URL+"/v1/fleets/"+id); code != http.StatusNotFound {
		t.Fatalf("canceled fleet came back: %d", code)
	}
}
