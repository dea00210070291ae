package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	ehinfer "repro"
)

// grid-sweep sizes: events per point, Q-learning warm-up episodes, and
// seeds per axis combination (4 traces × 3 devices × 2 exit policies ×
// 2 capacitors × seeds points).
const (
	gridEvents = 60
	gridWarmup = 4
	gridSeeds  = 5
)

// gridSpec is grid-sweep's job, the paper's sweep: solar peaks plus a
// kinetic trace, three MCUs, Q-learning and static exits, two capacitors
// and several seeds, with the three baselines run at every point.
// seeds limits the seed axis (the determinism check's reduced copy).
func gridSpec(seed uint64, seeds int) ehinfer.GridSpec {
	solar := func(peak float64) ehinfer.TraceSpec {
		return ehinfer.TraceSpec{Name: fmt.Sprintf("solar-%g", peak), Kind: "solar", Seconds: 21600, PeakPower: peak}
	}
	s := ehinfer.GridSpec{
		Name: "grid-sweep", BaseSeed: seed, Events: gridEvents, Baselines: true,
		Traces: []ehinfer.TraceSpec{solar(0.02), solar(0.032), solar(0.05),
			{Name: "kinetic", Kind: "kinetic", Seconds: 21600, PeakPower: 0.9}},
		Devices: []string{"MSP432", "MSP430FR5994", "ApolloM4"},
		Exits: []ehinfer.ExitSpec{{Name: "qlearning", Mode: ehinfer.PolicyQLearning, Warmup: gridWarmup},
			{Name: "static", Mode: ehinfer.PolicyStaticLUT}},
		Storages: []ehinfer.StorageSpec{benchStorage(3), benchStorage(6)},
	}
	for i := range seeds {
		s.Seeds = append(s.Seeds, seed*100+uint64(i)+1)
	}
	return s
}

func gridPoints(s ehinfer.GridSpec) int {
	return len(s.Traces) * len(s.Devices) * len(s.Exits) * len(s.Storages) * len(s.Seeds)
}

// gridSweep: one client runs asynchronous grid jobs back to back: post
// the spec to /v1/grids, follow its NDJSON point results, fetch the
// final document.
func gridSweep(ctx context.Context, b *bench) error {
	var extra []string
	if b.traced {
		extra = append(extra, "-pprof")
	}
	d, err := startDaemon(ctx, b, extra...)
	if err != nil {
		return err
	}
	defer d.stop()
	spec := gridSpec(b.seed, gridSeeds)
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	jobs, prof, err := runJobs(ctx, b, d, "grids", body)
	if err != nil {
		return err
	}
	points := gridPoints(spec)
	jobMetrics(b, d, jobs, float64(points))
	fmt.Fprintf(os.Stderr, "grid-sweep: %d jobs of %d points, p50 %.0f ms, %.0f points/s\n",
		len(jobs), points, b.e2e["latency_p50_ms"], b.e2e["work_per_s"])

	var res ehinfer.GridResult
	if err := json.Unmarshal(jobs[0].doc, &res); err != nil {
		return fmt.Errorf("grid document: %w", err)
	}
	if err := checkGrid(b, points, &res, len(jobs[0].lines)); err != nil {
		return err
	}
	checkSameDocs(b, "grid", jobs)
	if err := checkGridDeterminism(ctx, b, d); err != nil {
		return err
	}
	if !b.traced {
		return nil
	}
	gz, err := prof.wait()
	if err != nil {
		return err
	}
	if err := b.cpuShares(gz); err != nil {
		return err
	}
	return gridLayers(ctx, b, spec, jobs)
}

// checkGrid checks every row of a grid document: rates in [0, 1],
// accuracy over all events at most that over processed ones, "Our
// Approach" inference MACs inside the bracket its exit shares allow, and
// each baseline's MACs equal to its model's fixed count.
func checkGrid(b *bench, points int, res *ehinfer.GridResult, streamed int) error {
	lo, hi, err := nonuniformCosts()
	if err != nil {
		return err
	}
	fixed := map[string]float64{}
	for _, bl := range ehinfer.AllBaselines() {
		fixed[bl.Name] = float64(bl.FLOPs)
	}
	b.check(len(res.Results) == points && streamed == points,
		"grid: %d results in the document and %d streamed, want %d", len(res.Results), streamed, points)
	for _, r := range res.Results {
		where := fmt.Sprintf("grid point %d", r.Point.Index)
		b.check(r.Err == "" && !r.Skipped, "%s: failed: %s", where, r.Err)
		b.check(len(r.Rows) == 1+len(fixed), "%s: %d rows, want %d", where, len(r.Rows), 1+len(fixed))
		for _, row := range r.Rows {
			w := where + " " + row.System
			var shares float64
			inUnit := row.AccAll >= 0 && row.AccAll <= 1 && row.AccProcessed >= 0 && row.AccProcessed <= 1 &&
				row.ProcessedFrac >= 0 && row.ProcessedFrac <= 1
			for _, s := range row.ExitShares {
				inUnit = inUnit && s >= 0 && s <= 1
				shares += s
			}
			b.check(inUnit, "%s: a rate lies outside [0, 1]: %+v", w, row)
			b.check(row.AccAll <= row.AccProcessed, "%s: accuracy over all events %v exceeds accuracy over processed %v",
				w, row.AccAll, row.AccProcessed)
			if row.ProcessedFrac == 0 {
				continue
			}
			if f, ok := fixed[row.System]; ok {
				b.check(row.MeanInfFLOPs == f, "%s: %v MACs per inference, the model has %v", w, row.MeanInfFLOPs, f)
				continue
			}
			b.check(row.System == "Our Approach", "%s: unknown system", w)
			var flo, fhi float64
			for e, s := range row.ExitShares {
				flo += s / shares * lo[e]
				fhi += s / shares * hi[e]
			}
			b.check(bracketed(row.MeanInfFLOPs, flo, fhi), "%s: %v MACs per inference outside [%v, %v] set by exit shares %v",
				w, row.MeanInfFLOPs, flo, fhi, row.ExitShares)
		}
	}
	return nil
}

// checkGridDeterminism runs a reduced copy of the spec (one seed)
// through the daemon and in process at one worker: the documents must be
// identical.
func checkGridDeterminism(ctx context.Context, b *bench, d *daemon) error {
	spec := gridSpec(b.seed, 1)
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	j, err := runJob(ctx, d, "grids", body)
	if err != nil {
		return err
	}
	g, err := spec.Grid()
	if err != nil {
		return err
	}
	res, err := ehinfer.NewSession(ehinfer.WithWorkers(1)).RunGrid(ctx, g)
	if err != nil {
		return err
	}
	doc, err := res.JSON()
	if err != nil {
		return err
	}
	b.check(bytes.Equal(doc, j.doc), "grid: the daemon's document for the reduced spec differs from Session.RunGrid at 1 worker")
	return nil
}

// gridLayers fills grid-sweep's per-layer metrics from the run's jobs
// and from in-process runs of the spec and of one point's scenario.
func gridLayers(ctx context.Context, b *bench, spec ehinfer.GridSpec, jobs []*jobRun) error {
	points := float64(gridPoints(spec))
	rate := map[int]float64{}
	var runMS float64
	for _, w := range []int{1, b.nproc} {
		g, err := spec.Grid()
		if err != nil {
			return err
		}
		// Like the daemon's, the session builds the deployment on its
		// first run and reuses it after: time a second run.
		s := ehinfer.NewSession(ehinfer.WithWorkers(w))
		if _, err := s.RunGrid(ctx, g); err != nil {
			return err
		}
		t := time.Now()
		if _, err := s.RunGrid(ctx, g); err != nil {
			return err
		}
		b.addSpan(fmt.Sprintf("grid-w%d", w), "session.run_grid", "", t, time.Now())
		runMS = ms(time.Since(t))
		rate[w] = points / (runMS / 1000)
	}
	var job []float64
	for _, j := range jobs {
		job = append(job, ms(j.end.Sub(j.start)))
	}
	b.layer["exper.engine_rate_w1"] = rate[1]
	b.layer["exper.engine_rate_wN"] = rate[b.nproc]
	b.layer["exper.scaling"] = rate[b.nproc] / rate[1]
	b.layer["exper.job_overhead_ms"] = mean(job) - runMS

	var err error
	var dep *ehinfer.Deployed
	b.layer["exper.deploy_ms"], err = medianOf(3, func() error {
		dep, err = ehinfer.BuildDeployed(ehinfer.Fig1bNonuniform(), spec.BaseSeed)
		return err
	})
	if err != nil {
		return err
	}

	// One point's scenario: the first trace, device and capacitor.
	tr := spec.Traces[0]
	sc, err := ehinfer.NewScenario().Seed(spec.Seeds[0]).Solar(float64(tr.Seconds)/3600, tr.PeakPower).
		DeviceNamed(spec.Devices[0]).Capacitor(spec.Storages[1].Storage.CapacityMJ).Events(gridEvents, 10).Build()
	if err != nil {
		return err
	}
	s := ehinfer.NewSession()
	episode, err := medianOf(3, func() error {
		_, err := s.RunProposed(ctx, sc, dep, ehinfer.CompareConfig{WarmupEpisodes: gridWarmup})
		return err
	})
	if err != nil {
		return err
	}
	b.layer["core.episode_ms"] = episode / (gridWarmup + 1)
	for _, bl := range ehinfer.AllBaselines() {
		name := "baselines." + strings.ReplaceAll(strings.ToLower(bl.Name), "-", "_") + "_ms"
		if b.layer[name], err = medianOf(3, func() error {
			_, err := ehinfer.RunBaseline(bl, sc, spec.Seeds[0])
			return err
		}); err != nil {
			return err
		}
	}
	return traceLayers(b, spec.Traces[0], spec.Traces[3])
}
