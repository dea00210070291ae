package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// rssJobs is the number of timed jobs after which a job workload reads
// the daemon's peak RSS. The daemon keeps up to 128 finished jobs in
// memory, so its peak grows with every job a run completes; reading it at
// a fixed job count keeps a faster program from reading as a bigger one.
const rssJobs = 8

// jobRun is one asynchronous fleet or grid job as the client saw it.
type jobRun struct {
	start, submitted, end time.Time
	lines                 []time.Time   // arrival of each streamed result line
	doc                   []byte        // the final result document
	cpu                   time.Duration // the daemon's CPU time over the job
}

// runJob submits spec to kind ("fleets" or "grids"), follows its NDJSON
// stream to the end, and fetches the final document.
func runJob(ctx context.Context, d *daemon, kind string, spec []byte) (*jobRun, error) {
	j := &jobRun{start: time.Now()}
	reply, err := d.post(ctx, "/v1/"+kind, spec, http.StatusAccepted)
	if err != nil {
		return nil, err
	}
	j.submitted = time.Now()
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(reply, &sub); err != nil || sub.ID == "" {
		return nil, fmt.Errorf("%s submit reply %.200s: %v", kind, reply, err)
	}
	path := "/v1/" + kind + "/" + sub.ID + "/results"
	var state string
	err = d.stream(ctx, path+"?format=ndjson", func(line []byte) error {
		var end struct {
			Done  bool   `json:"done"`
			State string `json:"state"`
		}
		if err := json.Unmarshal(line, &end); err != nil {
			return fmt.Errorf("%s stream line %.200s: %w", kind, line, err)
		}
		if end.Done {
			state = end.State
		} else {
			j.lines = append(j.lines, time.Now())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if state != "done" {
		return nil, fmt.Errorf("%s job %s ended %q", kind, sub.ID, state)
	}
	if j.doc, err = d.mustGet(ctx, path); err != nil {
		return nil, err
	}
	j.end = time.Now()
	return j, nil
}

// runJobs runs spec back to back until the window has passed: one
// client, a closed loop of whole jobs. It records each job's spans and
// the daemon's CPU time over each job, and in traced runs starts a CPU
// profile over the window. One untimed job first fills the daemon's
// deployment cache, which later jobs reuse.
func runJobs(ctx context.Context, b *bench, d *daemon, kind string, spec []byte) ([]*jobRun, *daemonProfile, error) {
	if _, err := runJob(ctx, d, kind, spec); err != nil {
		return nil, nil, err
	}
	var prof *daemonProfile
	if b.traced {
		prof = d.startProfile(ctx, b.window)
	}
	var jobs []*jobRun
	if err := b.windowStart(); err != nil {
		return nil, nil, err
	}
	deadline := time.Now().Add(b.window)
	for len(jobs) < rssJobs || time.Now().Before(deadline) {
		b.attempted++
		cpu0, err := d.cpu()
		if err != nil {
			return nil, nil, err
		}
		j, err := runJob(ctx, d, kind, spec)
		if err != nil {
			return nil, nil, err
		}
		cpu1, err := d.cpu()
		if err != nil {
			return nil, nil, err
		}
		j.cpu = cpu1 - cpu0
		id := fmt.Sprintf("%s-%d", kind, len(jobs))
		b.addSpan(id, kind+".job", "", j.start, j.end)
		b.addSpan(id, kind+".submit", kind+".job", j.start, j.submitted)
		if n := len(j.lines); n > 0 {
			b.addSpan(id, kind+".stream", kind+".job", j.submitted, j.lines[n-1])
			b.addSpan(id, kind+".fetch", kind+".job", j.lines[n-1], j.end)
		}
		jobs = append(jobs, j)
		if len(jobs) == rssJobs {
			if b.e2e["peak_rss_mib"], err = d.peakRSS(); err != nil {
				return nil, nil, err
			}
		}
	}
	if err := b.windowEnd(); err != nil {
		return nil, nil, err
	}
	return jobs, prof, nil
}

// jobMetrics sets the end-to-end metrics of a job workload from the
// median job; work is the devices × epochs or grid points of one job.
func jobMetrics(b *bench, d *daemon, jobs []*jobRun, work float64) {
	var lat, cpu []float64
	for _, j := range jobs {
		lat = append(lat, ms(j.end.Sub(j.start)))
		cpu = append(cpu, ms(j.cpu))
	}
	b.latencyMetrics(lat)
	b.e2e["setup_s"] = d.readyAt.Sub(procStart).Seconds()
	b.e2e["server_cpu_ms_per_req"] = pct(cpu, 0.5)
	b.e2e["work_per_s"] = work / (pct(lat, 0.5) / 1000)
}

// checkSameDocs checks that every job of the run returned the same final
// document: the specs are identical, and results are deterministic.
func checkSameDocs(b *bench, kind string, jobs []*jobRun) {
	for i, j := range jobs[1:] {
		b.check(string(j.doc) == string(jobs[0].doc), "%s job %d: final document differs from job 0's", kind, i+1)
	}
}

// medianOf runs fn n times and returns the median duration in ms.
func medianOf(n int, fn func() error) (float64, error) {
	var xs []float64
	for range n {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs = append(xs, ms(time.Since(t)))
	}
	return pct(xs, 0.5), nil
}
