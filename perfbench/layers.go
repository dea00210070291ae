package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"time"

	ehinfer "repro"
)

// serveLayers fills serve-anytime's per-layer metrics: the daemon's own
// counters and profile over the window, the client's view of each
// request, and in-process replays of the model layers on the run's mix.
func serveLayers(ctx context.Context, b *bench, d *daemon, reqs []*request, answered int,
	m0, m1 promText, heap0 memStats, prof *daemonProfile, model []byte) error {
	heap1, err := d.memStats(ctx)
	if err != nil {
		return err
	}
	gz, err := prof.wait()
	if err != nil {
		return err
	}
	if err := b.cpuShares(gz); err != nil {
		return err
	}
	n := float64(answered)
	b.layer["serve.alloc_kib_per_req"] = float64(heap1.totalAlloc-heap0.totalAlloc) / 1024 / n
	b.layer["serve.allocs_per_req"] = float64(heap1.mallocs-heap0.mallocs) / n

	handler := 1000 * histMean(m0, m1, "ehserved_request_duration_seconds", `route="/v1/infer"`)
	queue := 1000 * histMean(m0, m1, "ehserved_infer_latency_seconds")
	meanBatch := histMean(m0, m1, "ehserved_infer_batch_size_requests")
	b.layer["serve.handler_ms"] = handler
	b.layer["serve.self_ms"] = handler - queue
	b.layer["batch.queue_ms"] = queue
	b.layer["batch.mean_batch"] = meanBatch

	var httpMS, late []float64
	mix := map[string][]replayReq{}
	for i, r := range reqs {
		if r.err != nil || r.code != http.StatusOK {
			continue
		}
		httpMS = append(httpMS, ms(r.done.Sub(r.sent)))
		late = append(late, ms(r.sent.Sub(r.due)))
		id := r.id
		if id == "" {
			id = "request-" + strconv.Itoa(i)
		}
		b.addSpan(id, "infer.request", "", r.due, r.done)
		b.addSpan(id, "infer.wait_conn", "infer.request", r.due, r.sent)
		b.addSpan(id, "infer.http", "infer.request", r.sent, r.done)
		mix[r.backend] = append(mix[r.backend], replayReq{input: r.input, bound: r.bound, th: r.th})
	}
	b.layer["client.transport_ms"] = mean(httpMS) - handler
	b.layer["client.lateness_p50_ms"] = pct(late, 0.50)
	b.layer["client.lateness_p99_ms"] = pct(late, 0.99)

	if err := modelLayers(ctx, b, model, mix, max(1, int(math.Round(meanBatch)))); err != nil {
		return err
	}
	// A request waits in the queue for its window and for its whole
	// batch to execute: execute time per batch is the replayed time per
	// image, weighted by the run's backend mix, times the mean batch.
	var execMS float64
	for _, be := range serveBackends {
		execMS += b.layer["batch.exec_us_per_image."+be] / 1000 * float64(len(mix[be])) / n
	}
	b.layer["batch.wait_ms"] = queue - execMS*meanBatch
	return nil
}

// replayReq is one inference of a run's mix, replayed in process.
type replayReq struct {
	input []float32
	bound int
	th    float64
}

// modelLayers times the model layers in process through the root API:
// artifact decode; the first call on each backend, which compiles its
// plan; Session.Infer to each exit; and Session.InferBatch on the run's
// own mix at batch size bs.
func modelLayers(ctx context.Context, b *bench, model []byte, mix map[string][]replayReq, bs int) error {
	var dec []float64
	var bundle *ehinfer.DeploymentBundle
	for i := range 5 {
		t := time.Now()
		var err error
		if bundle, err = ehinfer.DecodeDeployed(bytes.NewReader(model)); err != nil {
			return err
		}
		b.addSpan("decode-"+strconv.Itoa(i), "artifact.decode", "", t, time.Now())
		dec = append(dec, ms(time.Since(t)))
	}
	b.layer["artifact.decode_ms"] = pct(dec, 0.5)
	dep := bundle.Deployed
	last := dep.Net.NumExits() - 1
	probe := images(b.seed+1, 64)

	var alloc uint64
	replayed := 0
	for _, be := range serveBackends {
		backend, err := ehinfer.ParseBackend(be)
		if err != nil {
			return err
		}
		s := ehinfer.NewSession(ehinfer.WithBackend(backend))
		t := time.Now()
		if _, err := s.Infer(ctx, dep, probe[0]); err != nil {
			return err
		}
		first := time.Since(t)
		b.addSpan("compile-"+be, "plan.first_infer", "", t, time.Now())
		for e := 0; e <= last; e++ {
			t := time.Now()
			for _, img := range probe {
				if _, err := s.Infer(ctx, dep, img, ehinfer.InferToExit(e)); err != nil {
					return err
				}
			}
			b.addSpan(fmt.Sprintf("%s-exit%d", be, e), "plan.infer_to_exit", "", t, time.Now())
			b.layer[fmt.Sprintf("plan.%s.to_exit%d_us", be, e)] = us(time.Since(t)) / float64(len(probe))
		}
		full := b.layer[fmt.Sprintf("plan.%s.to_exit%d_us", be, last)]
		b.layer["plan.compile_ms."+be] = ms(first) - full/1000
		b.layer["plan."+be+".macs_per_ns"] = float64(dep.ExitFLOPs[last]) / (full * 1000)

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t = time.Now()
		n := 0
		for i, g := range replayBatches(mix[be], bs) {
			ts := time.Now()
			inputs := make([][]float32, len(g))
			for j, r := range g {
				inputs[j] = r.input
			}
			opts := []ehinfer.InferOption{ehinfer.InferToExit(g[0].bound)}
			if g[0].th > 0 {
				opts = append(opts, ehinfer.InferWithThreshold(g[0].th))
			}
			if _, err := s.InferBatch(ctx, dep, inputs, opts...); err != nil {
				return err
			}
			b.addSpan(fmt.Sprintf("%s-batch%d", be, i), "batch.infer_batch", "", ts, time.Now())
			n += len(g)
		}
		el := time.Since(t)
		runtime.ReadMemStats(&m1)
		if n > 0 {
			b.layer["batch.exec_us_per_image."+be] = us(el) / float64(n)
		}
		alloc += m1.TotalAlloc - m0.TotalAlloc
		replayed += n
	}
	if replayed > 0 {
		b.layer["batch.alloc_kib_per_image"] = float64(alloc) / 1024 / float64(replayed)
	}
	return nil
}

// replayBatches splits a mix into InferBatch calls of at most bs inputs
// that share their options, keeping the mix's order within each option
// set.
func replayBatches(mix []replayReq, bs int) [][]replayReq {
	type key struct {
		bound int
		th    float64
	}
	groups := map[key][]replayReq{}
	var order []key
	for _, r := range mix {
		k := key{r.bound, r.th}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	var out [][]replayReq
	for _, k := range order {
		g := groups[k]
		for lo := 0; lo < len(g); lo += bs {
			out = append(out, g[lo:min(lo+bs, len(g))])
		}
	}
	return out
}
