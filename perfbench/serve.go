package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	ehinfer "repro"
)

// serveRate is serve-anytime's open-loop arrival rate in requests per
// second. Each request holds one of the two connections for about 5 ms
// (the 2 ms batching window included); at 150/s requests queued for a
// connection often enough that the tail mostly measured that queue,
// which magnifies any change in the host's speed. At 100/s latency shows
// the window and the exit scan.
const serveRate = 100

// serveThresholds are the confidence thresholds a request may carry.
var serveThresholds = []float64{0.5, 0.7, 0.8, 0.9, 0.95}

var serveBackends = []string{"plan", "int8fast"}

type inferBody struct {
	Artifact  string    `json:"artifact"`
	Backend   string    `json:"backend"`
	Input     []float32 `json:"input"`
	Exit      *int      `json:"exit,omitempty"`
	Threshold float64   `json:"threshold,omitempty"`
}

type inferReply struct {
	Predictions []ehinfer.Prediction `json:"predictions"`
}

// request is one serve-anytime request: what it asks, when it is due,
// and what came back.
type request struct {
	backend string
	bound   int
	th      float64
	input   []float32
	body    []byte
	offset  time.Duration // due time, from the start of the window

	due, sent, done time.Time
	code            int
	reply           []byte
	id              string
	err             error
}

// serveAnytime: independent clients post single-image /v1/infer requests
// on a Poisson schedule. Each request draws a backend and either no
// threshold, a confidence threshold, or an exit bound.
func serveAnytime(ctx context.Context, b *bench) error {
	var extra []string
	if b.traced {
		extra = append(extra, "-pprof")
	}
	d, err := startDaemon(ctx, b, extra...)
	if err != nil {
		return err
	}
	defer d.stop()
	model, err := readModel(b)
	if err != nil {
		return err
	}
	up, err := d.post(ctx, "/v1/artifacts", model, http.StatusCreated)
	if err != nil {
		return err
	}
	var art struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(up, &art); err != nil || art.ID == "" {
		return fmt.Errorf("artifact upload reply %.200s: %v", up, err)
	}
	gray := make([]float32, 3*32*32)
	for i := range gray {
		gray[i] = 0.5
	}
	for _, be := range serveBackends {
		body, err := json.Marshal(inferBody{Artifact: art.ID, Backend: be, Input: gray})
		if err != nil {
			return err
		}
		if _, err := d.post(ctx, "/v1/infer", body, http.StatusOK); err != nil {
			return err
		}
	}
	b.e2e["setup_s"] = time.Since(procStart).Seconds()

	bundle, err := ehinfer.DecodeDeployed(bytes.NewReader(model))
	if err != nil {
		return err
	}
	last := bundle.Deployed.Net.NumExits() - 1
	imgs := images(b.seed, serveRate*int(b.window/time.Second))
	reqs, err := serveMix(b.seed, imgs, art.ID, last, b.window)
	if err != nil {
		return err
	}

	m0, err := d.scrape(ctx)
	if err != nil {
		return err
	}
	var prof *daemonProfile
	var heap0 memStats
	if b.traced {
		if heap0, err = d.memStats(ctx); err != nil {
			return err
		}
		prof = d.startProfile(ctx, b.window)
	}
	cpu0, err := d.cpu()
	if err != nil {
		return err
	}
	if err := b.windowStart(); err != nil {
		return err
	}
	t0 := time.Now()
	openLoop(ctx, d, reqs, b.nproc)
	if err := b.windowEnd(); err != nil {
		return err
	}
	cpu1, err := d.cpu()
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	m1, err := d.scrape(ctx)
	if err != nil {
		return err
	}
	if b.e2e["peak_rss_mib"], err = d.peakRSS(); err != nil {
		return err
	}

	refs, err := layerWalk(model, imgs, b.nproc)
	if err != nil {
		return err
	}
	answered, end := checkServed(b, reqs, refs, art.ID, m1)
	var lat []float64
	for _, r := range reqs {
		lat = append(lat, ms(r.done.Sub(r.due)))
	}
	b.latencyMetrics(lat)
	if answered == 0 {
		return fmt.Errorf("no request was answered")
	}
	b.e2e["server_cpu_ms_per_req"] = ms(cpu1-cpu0) / float64(answered)
	b.e2e["work_per_s"] = float64(answered) / end.Sub(t0).Seconds()
	fmt.Fprintf(os.Stderr, "serve-anytime: %d requests at %d/s, p50 %.2f ms, p90 %.2f ms, p99 %.2f ms, daemon CPU %.2f ms/request\n",
		len(reqs), serveRate, b.e2e["latency_p50_ms"], b.e2e["latency_p90_ms"], pct(lat, 0.99), b.e2e["server_cpu_ms_per_req"])

	if !b.traced {
		return nil
	}
	return serveLayers(ctx, b, d, reqs, answered, m0, m1, heap0, prof, model)
}

// serveMix draws the requests. The make-up is exact, only its order is
// random: half the requests go to each backend, and a third each carry
// nothing, a threshold or an exit bound, spread evenly over the values.
// Arrivals are Poisson, rescaled so the last is due at the end of the
// window and every run offers exactly serveRate requests a second. The
// arrival draw is the same in every run: with two connections the tail
// is set by how the arrivals bunch, so a fixed draw lets the tail
// compare the program, not one seed's bunching against another's.
func serveMix(seed uint64, imgs [][]float32, artifact string, last int, window time.Duration) ([]*request, error) {
	n := len(imgs)
	kinds := rand.New(rand.NewPCG(seed, 0x5e7e)).Perm(n)
	arrivals := rand.New(rand.NewPCG(0xa771, 0x5e7e))
	due := make([]float64, n)
	var t float64
	for i := range due {
		t += arrivals.ExpFloat64()
		due[i] = t
	}
	reqs := make([]*request, n)
	for i, img := range imgs {
		k := kinds[i]
		r := &request{
			backend: serveBackends[k%len(serveBackends)],
			bound:   last,
			input:   img,
			offset:  time.Duration(due[i] / t * float64(window)),
		}
		body := inferBody{Artifact: artifact, Backend: r.backend, Input: img}
		k /= len(serveBackends)
		switch k % 3 {
		case 1:
			r.th = serveThresholds[(k/3)%len(serveThresholds)]
			body.Threshold = r.th
		case 2:
			r.bound = (k / 3) % last
			body.Exit = &r.bound
		}
		var err error
		if r.body, err = json.Marshal(body); err != nil {
			return nil, err
		}
		reqs[i] = r
	}
	return reqs, nil
}

// openLoop sends each request at its due time over at most conns
// connections. A request that finds every connection busy waits, and
// that wait counts in its latency, which runs from the due time.
func openLoop(ctx context.Context, d *daemon, reqs []*request, conns int) {
	ch := make(chan *request, len(reqs)) // the dispatcher never blocks
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range ch {
				r.sent = time.Now()
				var hdr http.Header
				r.code, r.reply, hdr, r.err = d.send(ctx, d.load, http.MethodPost, "/v1/infer", r.body)
				r.done = time.Now()
				if hdr != nil {
					r.id = hdr.Get("X-Request-ID")
				}
			}
		}()
	}
	t0 := time.Now()
	timer := time.NewTimer(0)
	<-timer.C
dispatch:
	for _, r := range reqs {
		r.due = t0.Add(r.offset)
		if wait := time.Until(r.due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				break dispatch
			case <-timer.C:
			}
		}
		ch <- r
	}
	close(ch)
	wg.Wait()
}

// checkServed checks every answer and the daemon's served counters, and
// counts the operations. It returns the number answered and when the
// last answer arrived.
func checkServed(b *bench, reqs []*request, refs []profile, artifact string, m promText) (int, time.Time) {
	answered := map[string]int{}
	taken := map[string][]int{}
	var agree agreement
	var end time.Time
	for i, r := range reqs {
		b.attempted++
		if r.err != nil || r.code != http.StatusOK {
			b.failed++
			fmt.Fprintf(os.Stderr, "request %d failed: status %d, %v: %.200s\n", i, r.code, r.err, r.reply)
			continue
		}
		answered[r.backend]++
		if r.done.After(end) {
			end = r.done
		}
		var rep inferReply
		if err := json.Unmarshal(r.reply, &rep); err != nil || len(rep.Predictions) != 1 {
			b.check(false, "request %d: reply %.200s does not hold one prediction (%v)", i, r.reply, err)
			continue
		}
		p := rep.Predictions[0]
		where := fmt.Sprintf("request %d (%s, exit bound %d, threshold %v)", i, r.backend, r.bound, r.th)
		checkAnswer(b, where, p, r.bound, r.th, refs[i], r.backend, &agree)
		if p.Exit >= 0 && p.Exit < len(refs[i].class) {
			if taken[r.backend] == nil {
				taken[r.backend] = make([]int, len(refs[i].class))
			}
			taken[r.backend][p.Exit]++
		}
	}
	agree.check(b)
	for _, be := range serveBackends {
		fmt.Fprintf(os.Stderr, "serve-anytime: %s answers by exit %v of %d\n", be, taken[be], answered[be])
	}

	total := 0
	for _, be := range serveBackends {
		// Each target also answered its one set-up request.
		want := float64(answered[be] + 1)
		label := strconv.Quote(artifactPrefix + artifact + "@" + be)
		served := m.sum("ehserved_infer_served_total", "model="+label)
		exits := m.sum("ehserved_exit_taken_total", "model="+label)
		b.check(served == want && exits == want,
			"%s: client saw %v answers; the daemon counts %v served and %v exits taken", be, want, served, exits)
		total += answered[be]
	}
	return total, end
}

const artifactPrefix = "artifact:"
