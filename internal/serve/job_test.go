package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// exchange is one HTTP request and reply as a client sees them.
type exchange struct {
	code     int
	location string
	ctype    string
	body     string
}

func call(t *testing.T, method, url, body string) exchange {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return exchange{resp.StatusCode, resp.Header.Get("Location"), resp.Header.Get("Content-Type"), string(data)}
}

var (
	elapsedRE   = regexp.MustCompile(`"elapsedMs":\d+`)
	completedRE = regexp.MustCompile(`"completed":\d+`)
)

// masked zeroes the wall-clock field of every status in body.
func masked(body string) string {
	return elapsedRE.ReplaceAllString(body, `"elapsedMs":0`)
}

// maskedRunning also zeroes the progress counts, which a job that runs
// or was canceled mid-run reaches at a time-dependent point.
func maskedRunning(body string) string {
	return completedRE.ReplaceAllString(masked(body), `"completed":0`)
}

// expect checks an exchange's status, content type, Location and body.
func expect(t *testing.T, what string, got exchange, code int, location, body string) {
	t.Helper()
	if got.code != code || got.ctype != "application/json" || got.location != location || got.body != body {
		t.Errorf("%s:\n got %d %s Location %q %q\nwant %d application/json Location %q %q",
			what, got.code, got.ctype, got.location, got.body, code, location, body)
	}
}

// ndjson splits an NDJSON reply into its item lines and its closing
// summary line.
func ndjson(t *testing.T, what string, got exchange) (items []string, summary string) {
	t.Helper()
	if got.code != http.StatusOK || got.ctype != "application/x-ndjson" || !strings.HasSuffix(got.body, "\n") {
		t.Fatalf("%s: %d %s %q", what, got.code, got.ctype, got.body)
	}
	lines := strings.Split(strings.TrimSuffix(got.body, "\n"), "\n")
	return lines[:len(lines)-1], lines[len(lines)-1]
}

// docItems returns the items of a final document, the grid's "results"
// or the fleet's "snapshots", each compacted to one line, in document
// order.
func docItems(t *testing.T, doc, key string) []string {
	t.Helper()
	var fields map[string]json.RawMessage
	if err := json.Unmarshal([]byte(doc), &fields); err != nil {
		t.Fatalf("final document: %v", err)
	}
	var raw []json.RawMessage
	if err := json.Unmarshal(fields[key], &raw); err != nil {
		t.Fatalf("final document %s: %v", key, err)
	}
	items := make([]string, len(raw))
	for i, r := range raw {
		var buf bytes.Buffer
		if err := json.Compact(&buf, r); err != nil {
			t.Fatal(err)
		}
		items[i] = buf.String()
	}
	return items
}

// sameItems checks that a stream's item lines are the final document's
// items, in any order: a live stream follows completion order.
func sameItems(t *testing.T, what string, items, doc []string) {
	t.Helper()
	if !slices.Equal(slices.Sorted(slices.Values(items)), slices.Sorted(slices.Values(doc))) {
		t.Errorf("%s: %d item lines are not the final document's %d items", what, len(items), len(doc))
	}
}

// wireKind is what the wire test expects of one job kind. Job 1 runs
// the fast spec asynchronously, job 2 the fast spec with ?stream=1, and
// job 3 the slow spec, canceled by DELETE while it runs.
type wireKind struct {
	path          string // "/v1/grids"
	prefix        string // "g"
	items         string // the final document's item array
	fast, slow    string // specs: one finishes at once, one runs for seconds
	unresolvable  string // a spec that decodes but does not resolve
	submitFast    string // 202 reply to job 1
	submitSlow    string // 202 reply to job 3
	doneStatus    string // job 1's status
	runningStatus string // job 3's status while it runs
	canceled      string // job 3's status once DELETE took effect
	summary       string // job 1's ?format=ndjson summary line
	streamSummary string // job 2's ?stream=1 summary line
	list          string // the kind's listing of jobs 1 to 3
	restored      string // job 1's status after a restart
	restoredSum   string // job 1's ?format=ndjson summary after a restart
	restoredList  string // the kind's listing after a restart: jobs 1 and 2
	badJSON       string // 400 reply to `{not json`
	badSpec       string // prefix of the 400 reply to unresolvable
	unknown999    string // 404 reply for id 999
	unknown3      string // 404 reply for job 3 after a restart
	stillRunning  string // 409 reply while job 3 runs
	// canceledDoc checks job 3's results reply once it was canceled.
	canceledDoc func(t *testing.T, got exchange)
}

var wireKinds = []wireKind{{
	path: "/v1/grids", prefix: "g", items: "results",
	fast: fastSpec, slow: slowSpec, unresolvable: `{"devices": ["Z80"]}`,
	submitFast:    `{"id":"g1","name":"e2e","points":4,"results":"/v1/grids/g1/results","status":"/v1/grids/g1"}` + "\n",
	submitSlow:    `{"id":"g3","name":"slow","points":16,"results":"/v1/grids/g3/results","status":"/v1/grids/g3"}` + "\n",
	doneStatus:    `{"id":"g1","name":"e2e","state":"done","completed":4,"total":4,"workers":1,"elapsedMs":0}` + "\n",
	runningStatus: `{"id":"g3","name":"slow","state":"running","completed":0,"total":16,"elapsedMs":0}` + "\n",
	canceled:      `{"id":"g3","name":"slow","state":"canceled","completed":0,"total":16,"workers":1,"elapsedMs":0,"err":"context canceled"}` + "\n",
	summary:       `{"completed":4,"done":true,"pointErrs":0,"state":"done","total":4,"workers":1}`,
	streamSummary: `{"completed":4,"done":true,"pointErrs":0,"state":"done","total":4,"workers":1}`,
	list: `{"grids":[{"id":"g1","name":"e2e","state":"done","completed":0,"total":4,"workers":1,"elapsedMs":0},` +
		`{"id":"g2","name":"e2e","state":"done","completed":0,"total":4,"workers":1,"elapsedMs":0},` +
		`{"id":"g3","name":"slow","state":"canceled","completed":0,"total":16,"workers":1,"elapsedMs":0,"err":"context canceled"}]}` + "\n",
	restored:     `{"id":"g1","name":"e2e","state":"done","completed":4,"total":4,"elapsedMs":0}` + "\n",
	restoredSum:  `{"completed":4,"done":true,"pointErrs":0,"state":"done","total":4,"workers":0}`,
	restoredList: `{"grids":[{"id":"g1","name":"e2e","state":"done","completed":4,"total":4,"elapsedMs":0},{"id":"g2","name":"e2e","state":"done","completed":4,"total":4,"elapsedMs":0}]}` + "\n",
	badJSON:      `{"error":"bad grid spec: invalid character 'n' looking for beginning of object key string"}` + "\n",
	badSpec:      `{"error":"exper: unknown device \"Z80\"`,
	unknown999:   `{"error":"unknown grid \"g999\""}` + "\n",
	unknown3:     `{"error":"unknown grid \"g3\""}` + "\n",
	stillRunning: `{"error":"grid still running; poll status or use ?format=ndjson to stream",` +
		`"status":{"id":"g3","name":"slow","state":"running","completed":0,"total":16,"elapsedMs":0}}` + "\n",
	// A canceled grid serves the partial document its run returned: every
	// point it never reached is marked skipped.
	canceledDoc: func(t *testing.T, got exchange) {
		var doc struct {
			Grid struct {
				Name string `json:"name"`
			} `json:"grid"`
			Results []struct {
				Skipped bool `json:"skipped"`
			} `json:"results"`
		}
		err := json.Unmarshal([]byte(got.body), &doc)
		if got.code != http.StatusOK || got.ctype != "application/json" || err != nil ||
			doc.Grid.Name != "slow" || len(doc.Results) != 16 || !doc.Results[15].Skipped {
			t.Errorf("canceled grid's results: %d %s %.300q (%v)", got.code, got.ctype, got.body, err)
		}
	},
}, {
	path: "/v1/fleets", prefix: "f", items: "snapshots",
	fast: fastFleetSpec, slow: slowFleetSpec,
	unresolvable:  `{"populations": [{"name": "x", "count": 1, "device": "nope"}]}`,
	submitFast:    `{"devices":40,"epochs":4,"id":"f1","name":"fleet-e2e","results":"/v1/fleets/f1/results","snapshots":4,"status":"/v1/fleets/f1"}` + "\n",
	submitSlow:    `{"devices":512,"epochs":60,"id":"f3","name":"fleet-slow","results":"/v1/fleets/f3/results","snapshots":60,"status":"/v1/fleets/f3"}` + "\n",
	doneStatus:    `{"id":"f1","name":"fleet-e2e","state":"done","completed":4,"total":4,"elapsedMs":0}` + "\n",
	runningStatus: `{"id":"f3","name":"fleet-slow","state":"running","completed":0,"total":60,"elapsedMs":0}` + "\n",
	canceled:      `{"id":"f3","name":"fleet-slow","state":"canceled","completed":0,"total":60,"elapsedMs":0,"err":"context canceled"}` + "\n",
	summary:       `{"completed":4,"done":true,"state":"done","total":4}`,
	streamSummary: `{"completed":4,"devices":40,"done":true,"state":"done","total":4}`,
	list: `{"fleets":[{"id":"f1","name":"fleet-e2e","state":"done","completed":0,"total":4,"elapsedMs":0},` +
		`{"id":"f2","name":"fleet-e2e","state":"done","completed":0,"total":4,"elapsedMs":0},` +
		`{"id":"f3","name":"fleet-slow","state":"canceled","completed":0,"total":60,"elapsedMs":0,"err":"context canceled"}]}` + "\n",
	restored:     `{"id":"f1","name":"fleet-e2e","state":"done","completed":4,"total":4,"elapsedMs":0}` + "\n",
	restoredSum:  `{"completed":4,"done":true,"state":"done","total":4}`,
	restoredList: `{"fleets":[{"id":"f1","name":"fleet-e2e","state":"done","completed":4,"total":4,"elapsedMs":0},{"id":"f2","name":"fleet-e2e","state":"done","completed":4,"total":4,"elapsedMs":0}]}` + "\n",
	badJSON:      `{"error":"bad fleet spec: invalid character 'n' looking for beginning of object key string"}` + "\n",
	badSpec:      `{"error":"fleet: population \"x\": exper: unknown device \"nope\"`,
	unknown999:   `{"error":"unknown fleet \"f999\""}` + "\n",
	unknown3:     `{"error":"unknown fleet \"f3\""}` + "\n",
	stillRunning: `{"error":"fleet still running; poll status or use ?format=ndjson to stream",` +
		`"status":{"id":"f3","name":"fleet-slow","state":"running","completed":0,"total":60,"elapsedMs":0}}` + "\n",
	// A canceled fleet serves the partial document its run returned: the
	// snapshots of the epochs it completed.
	canceledDoc: func(t *testing.T, got exchange) {
		var doc struct {
			Name      string            `json:"name"`
			Devices   int               `json:"devices"`
			Epochs    int               `json:"epochs"`
			Snapshots []json.RawMessage `json:"snapshots"`
		}
		err := json.Unmarshal([]byte(got.body), &doc)
		if got.code != http.StatusOK || got.ctype != "application/json" || err != nil ||
			doc.Name != "fleet-slow" || doc.Devices != 512 || doc.Epochs != 60 || len(doc.Snapshots) >= 60 {
			t.Errorf("canceled fleet's results: %d %s %.300q (%v)", got.code, got.ctype, got.body, err)
		}
	},
}}

// TestJobWire pins every byte the job routes answer, for grids and for
// fleets: submit, status while running and when done, the listings, the
// ?stream=1 and ?format=ndjson streams, the 400, 404, 409 and 500
// replies, DELETE, /v1/jobs, and the NDJSON follow of a job restored
// from its final document after a restart. Only elapsedMs is masked,
// and progress counts where they depend on timing.
func TestJobWire(t *testing.T) {
	dir := t.TempDir()
	sv, ts := durableServer(t, dir, 1)
	docs := map[string]string{}
	for _, k := range wireKinds {
		base := ts.URL + k.path
		j1, j3 := k.path+"/"+k.prefix+"1", k.path+"/"+k.prefix+"3"

		expect(t, "submit", call(t, "POST", base, k.fast), http.StatusAccepted, j1, k.submitFast)
		items, summary := ndjson(t, "follow", call(t, "GET", ts.URL+j1+"/results?format=ndjson", ""))
		if summary != k.summary {
			t.Errorf("follow summary %s, want %s", summary, k.summary)
		}
		st := call(t, "GET", ts.URL+j1, "")
		st.body = masked(st.body)
		expect(t, "done status", st, http.StatusOK, "", k.doneStatus)
		res := call(t, "GET", ts.URL+j1+"/results", "")
		if res.code != http.StatusOK || res.ctype != "application/json" {
			t.Fatalf("results: %d %s %q", res.code, res.ctype, res.body)
		}
		docs[k.path] = res.body
		doc := docItems(t, res.body, k.items)
		sameItems(t, "follow", items, doc)

		items, summary = ndjson(t, "stream", call(t, "POST", base+"?stream=1", k.fast))
		if summary != k.streamSummary {
			t.Errorf("stream summary %s, want %s", summary, k.streamSummary)
		}
		sameItems(t, "stream", items, doc)

		expect(t, "slow submit", call(t, "POST", base, k.slow), http.StatusAccepted, j3, k.submitSlow)
		run := call(t, "GET", ts.URL+j3, "")
		run.body = maskedRunning(run.body)
		expect(t, "running status", run, http.StatusOK, "", k.runningStatus)
		conflict := call(t, "GET", ts.URL+j3+"/results", "")
		conflict.body = maskedRunning(conflict.body)
		expect(t, "results while running", conflict, http.StatusConflict, "", k.stillRunning)
		del := call(t, "DELETE", ts.URL+j3, "")
		if del.body = maskedRunning(del.body); del.body != k.canceled {
			// DELETE answers at once; the run may not have wound down yet.
			expect(t, "DELETE", del, http.StatusAccepted, "", k.runningStatus)
		} else {
			expect(t, "DELETE", del, http.StatusAccepted, "", k.canceled)
		}
		if k.prefix == "g" {
			waitState(t, ts.URL, k.prefix+"3", StateCanceled)
		} else {
			waitFleetState(t, ts.URL, k.prefix+"3", StateCanceled)
		}
		can := call(t, "GET", ts.URL+j3, "")
		can.body = maskedRunning(can.body)
		expect(t, "canceled status", can, http.StatusOK, "", k.canceled)
		k.canceledDoc(t, call(t, "GET", ts.URL+j3+"/results", ""))
		again := call(t, "DELETE", ts.URL+j1, "")
		again.body = masked(again.body)
		expect(t, "DELETE of a finished job", again, http.StatusAccepted, "", k.doneStatus)

		expect(t, "bad JSON", call(t, "POST", base, `{not json`), http.StatusBadRequest, "", k.badJSON)
		if bad := call(t, "POST", base, k.unresolvable); bad.code != http.StatusBadRequest || !strings.HasPrefix(bad.body, k.badSpec) {
			t.Errorf("unresolvable spec: %d %q, want 400 %s…", bad.code, bad.body, k.badSpec)
		}
		for _, c := range []struct{ method, path string }{
			{"GET", "/" + k.prefix + "999"},
			{"GET", "/" + k.prefix + "999/results"},
			{"GET", "/" + k.prefix + "999/results?format=ndjson"},
			{"DELETE", "/" + k.prefix + "999"},
		} {
			expect(t, c.method+" "+c.path, call(t, c.method, base+c.path, ""), http.StatusNotFound, "", k.unknown999)
		}
		list := call(t, "GET", base, "")
		list.body = maskedRunning(list.body)
		expect(t, "list", list, http.StatusOK, "", k.list)
	}
	jobs := call(t, "GET", ts.URL+"/v1/jobs", "")
	jobs.body = maskedRunning(jobs.body)
	expect(t, "jobs", jobs, http.StatusOK, "", jobRows(wireKinds, func(k wireKind) string { return k.list }))
	shutdownServer(t, sv, ts)

	// A restart serves each kind's finished jobs 1 and 2 from their final
	// documents; job 2 ran on its ?stream=1 request and was journaled as
	// job 1 was. Job 3 was canceled, so it does not come back.
	sv2, ts2 := durableServer(t, dir, 1)
	defer shutdownServer(t, sv2, ts2)
	for _, k := range wireKinds {
		j1 := ts2.URL + k.path + "/" + k.prefix + "1"
		st := call(t, "GET", j1, "")
		st.body = masked(st.body)
		expect(t, "restored status", st, http.StatusOK, "", k.restored)
		items, summary := ndjson(t, "restored follow", call(t, "GET", j1+"/results?format=ndjson", ""))
		if summary != k.restoredSum {
			t.Errorf("restored follow summary %s, want %s", summary, k.restoredSum)
		}
		if want := docItems(t, docs[k.path], k.items); !slices.Equal(items, want) {
			t.Errorf("restored follow: %d item lines are not the final document's %d items in order", len(items), len(want))
		}
		if res := call(t, "GET", j1+"/results", ""); res.code != http.StatusOK || res.body != docs[k.path] {
			t.Errorf("restored results: %d, %d bytes, want the %d bytes served before the restart", res.code, len(res.body), len(docs[k.path]))
		}
		list := call(t, "GET", ts2.URL+k.path, "")
		list.body = masked(list.body)
		expect(t, "restored list", list, http.StatusOK, "", k.restoredList)
		expect(t, "canceled job after a restart", call(t, "GET", ts2.URL+k.path+"/"+k.prefix+"3", ""), http.StatusNotFound, "", k.unknown3)
	}
	jobs = call(t, "GET", ts2.URL+"/v1/jobs", "")
	jobs.body = masked(jobs.body)
	expect(t, "restored jobs", jobs, http.StatusOK, "", jobRows(wireKinds, func(k wireKind) string { return k.restoredList }))
}

// jobRows builds the expected GET /v1/jobs body from the kinds'
// expected listings: every row of each listing, tagged with its kind,
// grids first.
func jobRows(kinds []wireKind, listing func(wireKind) string) string {
	var rows []string
	for _, k := range kinds {
		var list map[string][]json.RawMessage
		if err := json.Unmarshal([]byte(listing(k)), &list); err != nil {
			panic(err)
		}
		kind := strings.TrimSuffix(strings.TrimPrefix(k.path, "/v1/"), "s")
		for _, row := range list[kind+"s"] {
			rows = append(rows, `{"kind":"`+kind+`",`+string(row[1:]))
		}
	}
	return `{"jobs":[` + strings.Join(rows, ",") + "]}\n"
}

// tinySpec is a one-point grid.
const tinySpec = `{
	"name": "tiny",
	"events": 5,
	"traces": [{"name": "s", "kind": "solar", "seconds": 60, "peakPower": 0.05}],
	"exits": [{"name": "static", "mode": 1}],
	"seeds": [1]
}`

// TestJobRetention: past maxRetainedJobs finished jobs of one kind the
// server drops the oldest, from its tables and from the data dir, while
// the other kind's jobs, which have a budget of their own, stay.
func TestJobRetention(t *testing.T) {
	dir := t.TempDir()
	sv, ts := durableServer(t, dir, 1)
	defer shutdownServer(t, sv, ts)
	fid := postJSON(t, ts.URL+"/v1/fleets", fastFleetSpec)["id"].(string)
	waitFleetState(t, ts.URL, fid, StateDone)
	gid := postJSON(t, ts.URL+"/v1/grids", tinySpec)["id"].(string)
	waitState(t, ts.URL, gid, StateDone)
	final := filepath.Join(dir, "jobs", gid+".json")
	if _, err := os.Stat(final); err != nil {
		t.Fatalf("finished grid has no final document: %v", err)
	}

	// maxRetainedJobs more finished grids: admitting the last one pushes
	// the first over the budget.
	for i := range maxRetainedJobs {
		if e := call(t, "POST", ts.URL+"/v1/grids?stream=1", tinySpec); e.code != http.StatusOK {
			t.Fatalf("grid %d: %d %q", i+2, e.code, e.body)
		}
	}
	if code, body := getBody(t, ts.URL+"/v1/grids/"+gid); code != http.StatusNotFound {
		t.Fatalf("oldest grid %s still served: %d %s", gid, code, body)
	}
	if _, err := os.Stat(final); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("pruned grid's final document is still in the data dir: %v", err)
	}
	if st := getStatus(t, ts.URL, "g2"); st.State != StateDone {
		t.Fatalf("second grid: %+v", st)
	}
	var list struct {
		Grids []JobStatus `json:"grids"`
	}
	if err := json.Unmarshal([]byte(call(t, "GET", ts.URL+"/v1/grids", "").body), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Grids) != maxRetainedJobs || list.Grids[0].ID != "g2" {
		t.Fatalf("grid listing holds %d jobs from %+v, want %d from g2", len(list.Grids), list.Grids[0], maxRetainedJobs)
	}

	if st := getFleetStatus(t, ts.URL, fid); st.State != StateDone {
		t.Fatalf("fleet %s after the grids: %+v", fid, st)
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs", fid+".json")); err != nil {
		t.Fatalf("fleet's final document left the data dir: %v", err)
	}
}

// TestJobIDsNeverReissued: a canceled job leaves nothing on disk, yet
// after a restart its id is not issued again, nor a streamed job's, for
// either kind.
func TestJobIDsNeverReissued(t *testing.T) {
	dir := t.TempDir()
	sv, ts := durableServer(t, dir, 1)
	if e := call(t, "POST", ts.URL+"/v1/grids?stream=1", tinySpec); e.code != http.StatusOK {
		t.Fatalf("streamed grid: %d %q", e.code, e.body)
	}
	for _, k := range wireKinds {
		id := postJSON(t, ts.URL+k.path, k.slow)["id"].(string)
		if e := call(t, "DELETE", ts.URL+k.path+"/"+id, ""); e.code != http.StatusAccepted {
			t.Fatalf("DELETE %s: %d", id, e.code)
		}
		if k.prefix == "g" {
			waitState(t, ts.URL, id, StateCanceled)
		} else {
			waitFleetState(t, ts.URL, id, StateCanceled)
		}
	}
	shutdownServer(t, sv, ts)

	sv2, ts2 := durableServer(t, dir, 1)
	defer shutdownServer(t, sv2, ts2)
	for _, k := range wireKinds {
		want := map[string]string{"g": "g3", "f": "f2"}[k.prefix]
		if id := postJSON(t, ts2.URL+k.path, k.fast)["id"]; id != want {
			t.Errorf("first %s after the restart got id %v, want %s", k.path, id, want)
		}
	}
}

// TestJobsKeepSubmissionOrderAcrossRestart: restored jobs list in the
// order they were submitted, g2 before g10, which is also the order
// retention drops them in.
func TestJobsKeepSubmissionOrderAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	sv, ts := durableServer(t, dir, 1)
	var want []string
	for range 11 {
		id := postJSON(t, ts.URL+"/v1/grids", tinySpec)["id"].(string)
		waitState(t, ts.URL, id, StateDone)
		want = append(want, id)
	}
	shutdownServer(t, sv, ts)

	sv2, ts2 := durableServer(t, dir, 1)
	defer shutdownServer(t, sv2, ts2)
	var list struct {
		Grids []JobStatus `json:"grids"`
	}
	if err := json.Unmarshal([]byte(call(t, "GET", ts2.URL+"/v1/grids", "").body), &list); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, st := range list.Grids {
		got = append(got, st.ID)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("grids after a restart listed %v, want %v", got, want)
	}
}
