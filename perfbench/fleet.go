package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	ehinfer "repro"
)

// fleet-mixed sizes: devices per population at full size, and the
// epochs and events per device-epoch of every job.
var fleetCounts = []int{4000, 2000, 2000, 2000}

const (
	fleetEpochs = 8
	fleetEvents = 40
	// fleetReduce divides the population sizes of the determinism check's
	// reduced copy.
	fleetReduce = 20
)

// benchStorage is a capacitor of the given capacity with the paper's
// thresholds, efficiency and leakage: 6 mJ for every fleet population,
// 3 and 6 mJ on the grid's capacitor axis.
func benchStorage(capacityMJ float64) ehinfer.StorageSpec {
	return ehinfer.StorageSpec{
		Name: fmt.Sprintf("%gmJ", capacityMJ),
		Storage: ehinfer.Storage{CapacityMJ: capacityMJ, TurnOnMJ: 0.5, BrownOutMJ: 0.05,
			ChargeEfficiency: 0.9, LeakMWPerS: 0.0002},
	}
}

// fleetSpec is fleet-mixed's job: surrogate-accuracy populations only
// (empirical ones run real inference per event and would swamp the
// simulator): Q-learning on solar traces, the static LUT, kinetic traces
// with leave and degrade churn, and a second MCU.
func fleetSpec(seed uint64, reduce int) ehinfer.FleetSpec {
	solar := ehinfer.TraceSpec{Name: "solar", Kind: "solar", Seconds: 3600, PeakPower: 0.032}
	kinetic := ehinfer.TraceSpec{Name: "kinetic", Kind: "kinetic", Seconds: 3600, PeakPower: 0.9}
	st := benchStorage(6)
	pops := []ehinfer.FleetPopulation{
		{Name: "solar-qlearning", Device: "MSP432", Trace: solar, Storage: st},
		{Name: "solar-static", Device: "MSP432", Trace: solar, Storage: st,
			Exit: ehinfer.ExitSpec{Name: "static", Mode: ehinfer.PolicyStaticLUT}},
		{Name: "kinetic-churn", Device: "MSP432", Trace: kinetic, Storage: st,
			Churn: []ehinfer.FleetChurn{{Kind: "leave", Prob: 0.1}, {Kind: "degrade", Prob: 0.3, Rate: 0.05}}},
		{Name: "apollo-qlearning", Device: "ApolloM4", Trace: solar, Storage: st},
	}
	for i := range pops {
		pops[i].Count = fleetCounts[i] / reduce
	}
	return ehinfer.FleetSpec{Name: "fleet-mixed", BaseSeed: seed, Epochs: fleetEpochs, Events: fleetEvents,
		Populations: pops}
}

func fleetDevices(spec ehinfer.FleetSpec) int {
	n := 0
	for _, p := range spec.Populations {
		n += p.Count
	}
	return n
}

// fleetMixed: one client runs asynchronous fleet jobs back to back: post
// the spec to /v1/fleets, follow its NDJSON snapshots, fetch the final
// document.
func fleetMixed(ctx context.Context, b *bench) error {
	var extra []string
	if b.traced {
		extra = append(extra, "-pprof")
	}
	d, err := startDaemon(ctx, b, extra...)
	if err != nil {
		return err
	}
	defer d.stop()
	spec := fleetSpec(b.seed, 1)
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	jobs, prof, err := runJobs(ctx, b, d, "fleets", body)
	if err != nil {
		return err
	}
	work := float64(fleetDevices(spec) * fleetEpochs)
	jobMetrics(b, d, jobs, work)
	fmt.Fprintf(os.Stderr, "fleet-mixed: %d jobs of %d device-epochs, p50 %.0f ms, %.0f device-epochs/s\n",
		len(jobs), int(work), b.e2e["latency_p50_ms"], b.e2e["work_per_s"])

	var res ehinfer.FleetResult
	if err := json.Unmarshal(jobs[0].doc, &res); err != nil {
		return fmt.Errorf("fleet document: %w", err)
	}
	if err := checkFleet(b, spec, &res, len(jobs[0].lines)); err != nil {
		return err
	}
	checkSameDocs(b, "fleet", jobs)
	if err := checkFleetDeterminism(ctx, b, d); err != nil {
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
	return fleetLayers(ctx, b, spec, jobs, &res)
}

// checkFleet checks a fleet document against its spec: the counts add
// up, and each population's inference energy lies in the bracket its
// exit histogram allows and within the energy it had.
func checkFleet(b *bench, spec ehinfer.FleetSpec, res *ehinfer.FleetResult, streamed int) error {
	lo, hi, err := nonuniformCosts()
	if err != nil {
		return err
	}
	b.check(len(res.Snapshots) == spec.Epochs && streamed == spec.Epochs,
		"fleet: %d snapshots in the document and %d streamed, want %d", len(res.Snapshots), streamed, spec.Epochs)
	if len(res.Totals) != len(spec.Populations) {
		b.check(false, "fleet: %d population totals, want %d", len(res.Totals), len(spec.Populations))
		return nil
	}
	for i, ps := range spec.Populations {
		t := res.Totals[i]
		var hist int64
		var elo, ehi float64
		for e, n := range t.ExitHist {
			hist += n
			elo += float64(n) * lo[e]
			ehi += float64(n) * hi[e]
		}
		b.check(hist == t.Processed, "fleet %s: exit histogram sums to %d, processed %d", ps.Name, hist, t.Processed)
		b.check(t.Correct <= t.Processed && t.Processed <= t.Events,
			"fleet %s: correct %d, processed %d, events %d", ps.Name, t.Correct, t.Processed, t.Events)
		online := int64(ps.Count*spec.Epochs) - t.Offline
		b.check(t.Events == online*int64(spec.Events),
			"fleet %s: %d events, want (%d device-epochs - %d offline) x %d", ps.Name, t.Events, ps.Count*spec.Epochs, t.Offline, spec.Events)
		epm, err := deviceEnergy(ps.Device)
		if err != nil {
			return err
		}
		elo, ehi = elo*epm/1e6, ehi*epm/1e6
		b.check(bracketed(t.EnergyMJ, elo, ehi),
			"fleet %s: inference energy %.6f mJ outside [%.6f, %.6f] set by exit histogram %v", ps.Name, t.EnergyMJ, elo, ehi, t.ExitHist)
		// Each device-epoch starts with its capacitor at the turn-on level.
		budget := t.HarvestedMJ + float64(online)*ps.Storage.Storage.TurnOnMJ
		b.check(t.EnergyMJ <= budget*(1+1e-9), "fleet %s: spent %.3f mJ, more than harvested plus starting charge %.3f mJ",
			ps.Name, t.EnergyMJ, budget)
	}
	return nil
}

// checkFleetDeterminism runs a reduced copy of the spec through the
// daemon and in process at one worker: the documents must be identical.
func checkFleetDeterminism(ctx context.Context, b *bench, d *daemon) error {
	spec := fleetSpec(b.seed, fleetReduce)
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	j, err := runJob(ctx, d, "fleets", body)
	if err != nil {
		return err
	}
	f, err := spec.Fleet()
	if err != nil {
		return err
	}
	res, err := ehinfer.NewSession(ehinfer.WithWorkers(1)).RunFleet(ctx, f)
	if err != nil {
		return err
	}
	doc, err := res.JSON()
	if err != nil {
		return err
	}
	b.check(bytes.Equal(doc, j.doc), "fleet: the daemon's document for the reduced spec differs from Session.RunFleet at 1 worker")
	return nil
}

// fleetLayers fills fleet-mixed's per-layer metrics from the run's jobs
// and from in-process runs of the same spec.
func fleetLayers(ctx context.Context, b *bench, spec ehinfer.FleetSpec, jobs []*jobRun, res *ehinfer.FleetResult) error {
	var submit, epoch, job []float64
	for _, j := range jobs {
		submit = append(submit, ms(j.submitted.Sub(j.start)))
		if n := len(j.lines); n > 0 {
			epoch = append(epoch, ms(j.lines[n-1].Sub(j.submitted))/float64(n))
		}
		job = append(job, ms(j.end.Sub(j.start)))
	}
	b.layer["fleet.submit_ms"] = mean(submit)
	b.layer["fleet.epoch_ms"] = mean(epoch)
	var events, processed int64
	var energy float64
	for _, t := range res.Totals {
		events += t.Events
		processed += t.Processed
		energy += t.EnergyMJ
	}
	b.layer["fleet.events"] = float64(events)
	b.layer["fleet.processed"] = float64(processed)
	b.layer["fleet.energy_mj"] = energy

	work := float64(fleetDevices(spec) * spec.Epochs)
	rate := map[int]float64{}
	var runMS float64
	for _, w := range []int{1, b.nproc} {
		f, err := spec.Fleet()
		if err != nil {
			return err
		}
		t := time.Now()
		if _, err := ehinfer.NewSession(ehinfer.WithWorkers(w)).RunFleet(ctx, f); err != nil {
			return err
		}
		b.addSpan(fmt.Sprintf("fleet-w%d", w), "session.run_fleet", "", t, time.Now())
		runMS = ms(time.Since(t))
		rate[w] = work / (runMS / 1000)
	}
	b.layer["fleet.engine_rate_w1"] = rate[1]
	b.layer["fleet.engine_rate_wN"] = rate[b.nproc]
	b.layer["fleet.scaling"] = rate[b.nproc] / rate[1]
	b.layer["fleet.job_overhead_ms"] = mean(job) - runMS
	return traceLayers(b, spec.Populations[0].Trace, spec.Populations[2].Trace)
}

// traceLayers times the energy layer's trace generators on the given
// solar and kinetic trace specs.
func traceLayers(b *bench, solar, kinetic ehinfer.TraceSpec) error {
	var err error
	seed := b.seed
	b.layer["energy.solar_trace_ms"], err = medianOf(5, func() error {
		seed++
		ehinfer.SyntheticSolarTrace(ehinfer.SolarConfig{Seconds: solar.Seconds, PeakPower: solar.PeakPower, Seed: seed})
		return nil
	})
	if err != nil {
		return err
	}
	b.layer["energy.kinetic_trace_ms"], err = medianOf(5, func() error {
		seed++
		ehinfer.SyntheticKineticTrace(ehinfer.KineticConfig{Seconds: kinetic.Seconds, BurstPower: kinetic.PeakPower, Seed: seed})
		return nil
	})
	return err
}
