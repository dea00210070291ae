package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	ehinfer "repro"
)

// infer-batch sizes: one caller sends 64-image batches, cycling through
// a pool of distinct batches.
const (
	batchImages = 64
	batchPool   = 16
)

// inferBatch: one in-process caller runs Session.InferBatch on 64-image
// batches at the deepest exit with no threshold, in a closed loop,
// alternating a plan session and an int8fast session.
func inferBatch(ctx context.Context, b *bench) error {
	model, err := readModel(b)
	if err != nil {
		return err
	}
	bundle, err := ehinfer.DecodeDeployed(bytes.NewReader(model))
	if err != nil {
		return err
	}
	dep := bundle.Deployed
	sessions := make([]*ehinfer.Session, len(serveBackends))
	gray := make([][]float32, batchImages)
	for i := range gray {
		gray[i] = make([]float32, 3*32*32)
		for j := range gray[i] {
			gray[i][j] = 0.5
		}
	}
	for i, be := range serveBackends {
		backend, err := ehinfer.ParseBackend(be)
		if err != nil {
			return err
		}
		sessions[i] = ehinfer.NewSession(ehinfer.WithBackend(backend))
		if _, err := sessions[i].InferBatch(ctx, dep, gray); err != nil {
			return err
		}
	}
	b.e2e["setup_s"] = time.Since(procStart).Seconds()

	last := dep.Net.NumExits() - 1
	imgs := images(b.seed, batchImages*batchPool)

	var prof bytes.Buffer
	if b.traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	}
	type call struct {
		backend, batch int
		preds          []ehinfer.Prediction
	}
	var calls []call
	var lat, cpu []float64
	if err := b.windowStart(); err != nil {
		return err
	}
	deadline := time.Now().Add(b.window)
	// Whole rounds: every round runs one batch on each backend.
	for i := 0; i%len(sessions) != 0 || time.Now().Before(deadline); i++ {
		if ctx.Err() != nil {
			break
		}
		be, k := i%len(sessions), (i/len(sessions))%batchPool
		t, cpu0 := time.Now(), selfCPU()
		preds, err := sessions[be].InferBatch(ctx, dep, imgs[k*batchImages:(k+1)*batchImages])
		done, cpu1 := time.Now(), selfCPU()
		b.addSpan("call-"+strconv.Itoa(i), "session.infer_batch."+serveBackends[be], "", t, done)
		b.attempted++
		if err != nil {
			b.failed++
			fmt.Fprintf(os.Stderr, "call %d failed: %v\n", i, err)
			continue
		}
		lat = append(lat, ms(done.Sub(t)))
		cpu = append(cpu, ms(cpu1-cpu0))
		calls = append(calls, call{be, k, preds})
	}
	if err := b.windowEnd(); err != nil {
		return err
	}
	if b.traced {
		pprof.StopCPUProfile()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(calls) == 0 {
		return fmt.Errorf("no batch was answered")
	}
	// Read the high-water mark before the reference walk allocates.
	if b.e2e["peak_rss_mib"], err = procHWM("self"); err != nil {
		return err
	}
	refs, err := layerWalk(model, imgs, b.nproc)
	if err != nil {
		return err
	}

	var agree agreement
	for i, c := range calls {
		for j, p := range c.preds {
			img := c.batch*batchImages + j
			where := fmt.Sprintf("call %d image %d (%s)", i, img, serveBackends[c.backend])
			checkAnswer(b, where, p, last, 0, refs[img], serveBackends[c.backend], &agree)
		}
	}
	agree.check(b)

	b.latencyMetrics(lat)
	b.e2e["server_cpu_ms_per_req"] = pct(cpu, 0.5)
	b.e2e["work_per_s"] = batchImages / (pct(lat, 0.5) / 1000)
	fmt.Fprintf(os.Stderr, "infer-batch: %d calls of %d images, %.0f images/s, per call p50 %.2f ms, p99 %.2f ms\n",
		len(calls), batchImages, b.e2e["work_per_s"], b.e2e["latency_p50_ms"], pct(lat, 0.99))

	if !b.traced {
		return nil
	}
	if err := b.cpuShares(prof.Bytes()); err != nil {
		return err
	}
	mix := map[string][]replayReq{}
	for _, be := range serveBackends {
		for _, img := range imgs {
			mix[be] = append(mix[be], replayReq{input: img, bound: last})
		}
	}
	runtime.GC()
	return modelLayers(ctx, b, model, mix, batchImages)
}
