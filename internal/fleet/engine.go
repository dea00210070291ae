package fleet

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/exper"
	"repro/internal/intermittent"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/qlearn"
	"repro/internal/tensor"
)

// chunkDevices is the shard granularity: small enough to balance load
// across workers, large enough that per-chunk setup (table headers,
// scratch growth) amortizes away.
const chunkDevices = 1024

// Engine shards a fleet's devices across workers and runs them through
// the learning epochs. Devices are independent within an epoch and all
// cross-device aggregation happens at epoch barriers in device-index
// order, so Run's output is a pure function of the fleet — bit-identical
// at any worker count.
type Engine struct {
	// Workers is the shard worker count (0 = GOMAXPROCS-style default).
	Workers int
	// StartEpoch suppresses OnSnapshot for epochs before it: a resumed
	// run fast-forwards deterministically through the epochs its journal
	// already holds and emits only the remainder. The returned Result
	// still contains every snapshot, so the final document is identical
	// to an uninterrupted run's.
	StartEpoch int
	// OnSnapshot, when non-nil, observes each emitted snapshot in epoch
	// order (ehserved streams and journals these). It is called from
	// Run's goroutine between epochs.
	OnSnapshot func(Snapshot)
}

// Run executes the fleet and returns its result. It is a pure function
// of f (plus Engine knobs that do not affect values): arenas are built
// fresh each call, so the same fleet can be re-run or resumed at will.
// Cancelling ctx returns the snapshots completed so far with ctx.Err().
func (e *Engine) Run(ctx context.Context, f *Fleet) (*Result, error) {
	res := &Result{
		Name:    f.Name,
		Devices: f.Devices,
		Epochs:  f.Epochs,
		Events:  f.Events,
		Workers: e.Workers,
	}
	if f.Epochs == 0 || f.Devices == 0 {
		return res, nil
	}

	workers := e.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > f.Devices {
		workers = f.Devices
	}

	arenas := make([]*arena, len(f.Pops))
	for i, p := range f.Pops {
		arenas[i] = newArena(f, p, workers)
	}

	// The shard pool: persistent workers drain chunk jobs; a WaitGroup
	// per epoch is the barrier snapshots reduce behind.
	jobs := make(chan job, workers)
	var wg sync.WaitGroup
	var stop atomic.Bool
	var workerWG sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		workerWG.Add(1)
		go func() {
			defer workerWG.Done()
			w := worker{f: f}
			for jb := range jobs {
				if !stop.Load() {
					w.runChunk(jb)
				}
				wg.Done()
			}
		}()
	}
	defer func() {
		close(jobs)
		workerWG.Wait()
	}()

	// Per-population running totals and learning-curve accumulators.
	totals := make([]PopSnapshot, len(f.Pops))
	for i, p := range f.Pops {
		totals[i] = PopSnapshot{
			Name:     p.Name,
			Devices:  p.Count,
			ExitHist: make([]int64, len(p.Costs)),
		}
	}
	cumEvents := make([]int64, len(f.Pops))
	cumCorrect := make([]int64, len(f.Pops))

	for ep := 0; ep < f.Epochs; ep++ {
		if err := ctx.Err(); err != nil {
			stop.Store(true)
			res.Totals = finishTotals(totals)
			return res, err
		}
		for pi, p := range f.Pops {
			for lo := 0; lo < p.Count; lo += chunkDevices {
				hi := lo + chunkDevices
				if hi > p.Count {
					hi = p.Count
				}
				wg.Add(1)
				jobs <- job{p: p, a: arenas[pi], lo: lo, hi: hi, epoch: ep}
			}
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			stop.Store(true)
			res.Totals = finishTotals(totals)
			return res, err
		}

		if !f.snapshotAt(ep) {
			continue
		}
		snap := Snapshot{Epoch: ep, Devices: f.Devices, Populations: make([]PopSnapshot, len(f.Pops))}
		for pi, p := range f.Pops {
			ps := arenas[pi].reduce(p)
			cumEvents[pi] += ps.Events
			cumCorrect[pi] += ps.Correct
			ps.CumEvents = cumEvents[pi]
			ps.CumCorrect = cumCorrect[pi]
			ps.rates()
			totals[pi].accumulate(&ps)
			snap.Populations[pi] = ps
			arenas[pi].zeroIntervals()
		}
		res.Snapshots = append(res.Snapshots, snap)
		if ep >= e.StartEpoch && e.OnSnapshot != nil {
			e.OnSnapshot(snap)
		}
	}
	res.Totals = finishTotals(totals)
	return res, nil
}

// finishTotals fills the derived ratio fields of the running totals.
func finishTotals(totals []PopSnapshot) []PopSnapshot {
	for i := range totals {
		totals[i].rates()
	}
	return totals
}

// popEpsilon is the population's exploration rate for an epoch: fixed
// when the spec pins it, otherwise annealed from 0.27 down to 0.02 over
// the fleet's epochs (the fleet-scale analogue of the grid engine's
// warmup-then-evaluate split).
func popEpsilon(p *Population, epoch, epochs int) float64 {
	if p.Epsilon > 0 {
		return p.Epsilon
	}
	return 0.25*(1-float64(epoch)/float64(epochs)) + 0.02
}

// job is one shard: a contiguous run of a population's devices for one
// epoch.
type job struct {
	p      *Population
	a      *arena
	lo, hi int
	epoch  int
}

// arena is a population's packed per-device state: Q-values, RNG
// streams, and interval accumulators, all in flat slices indexed by the
// population-local device index. Nothing here is allocated per episode.
type arena struct {
	// exitQ/incrQ hold each device's two Q-tables back to back
	// (exitStride/incrStride values per device); workers Bind table
	// headers onto sub-slices.
	exitQ []float64
	incrQ []float64
	// rngs are the per-device policy/surrogate streams, carried across
	// epochs.
	rngs []tensor.RNG
	// variants[i] is the device's trace-pool index.
	variants []int32
	// Interval accumulators, zeroed after each snapshot reduce.
	events    []uint32
	processed []uint32
	correct   []uint32
	offline   []uint32
	exits     []uint32 // count × numExits final-exit histogram
	energyMJ  []float64
	harvestMJ []float64
}

// newArena packs a population's device state and initializes each
// device: the policy RNG seeded from the device's identity, the exit
// Q-table seeded from that stream by core.SeedExitQ, incremental Q
// zeroed. Initialization is sharded too (it is pure per-device work),
// so million-device fleets spin up on all cores.
func newArena(f *Fleet, p *Population, workers int) *arena {
	m := len(p.Costs)
	a := &arena{
		exitQ:     make([]float64, p.Count*p.exitStride),
		incrQ:     make([]float64, p.Count*p.incrStride),
		rngs:      make([]tensor.RNG, p.Count),
		variants:  make([]int32, p.Count),
		events:    make([]uint32, p.Count),
		processed: make([]uint32, p.Count),
		correct:   make([]uint32, p.Count),
		offline:   make([]uint32, p.Count),
		exits:     make([]uint32, p.Count*m),
		energyMJ:  make([]float64, p.Count),
		harvestMJ: make([]float64, p.Count),
	}
	var wg sync.WaitGroup
	chunk := (p.Count + workers - 1) / workers
	for lo := 0; lo < p.Count; lo += chunk {
		hi := lo + chunk
		if hi > p.Count {
			hi = p.Count
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			variants := uint64(len(p.Traces))
			exitTab := qlearn.Table{NumStates: p.EnergyBins * p.PowerBins, NumActions: m}
			for di := lo; di < hi; di++ {
				gidx := uint64(p.Start + di)
				a.variants[di] = int32(exper.DeriveSeed(f.BaseSeed, gidx, saltTrace) % variants)
				rng := &a.rngs[di]
				rng.Reseed(exper.DeriveSeed(f.BaseSeed, gidx, saltDevice))
				exitTab.Bind(a.exitQ[di*p.exitStride : (di+1)*p.exitStride])
				core.SeedExitQ(&exitTab, rng)
			}
		}(lo, hi)
	}
	wg.Wait()
	return a
}

// reduce sums the interval accumulators into a PopSnapshot, walking
// devices in index order so float accumulation is order-stable.
func (a *arena) reduce(p *Population) PopSnapshot {
	m := len(p.Costs)
	ps := PopSnapshot{
		Name:     p.Name,
		Devices:  p.Count,
		ExitHist: make([]int64, m),
	}
	for di := 0; di < p.Count; di++ {
		ps.Events += int64(a.events[di])
		ps.Processed += int64(a.processed[di])
		ps.Correct += int64(a.correct[di])
		ps.Offline += int64(a.offline[di])
		for x := 0; x < m; x++ {
			ps.ExitHist[x] += int64(a.exits[di*m+x])
		}
		ps.EnergyMJ += a.energyMJ[di]
		ps.HarvestedMJ += a.harvestMJ[di]
	}
	ps.Missed = ps.Events - ps.Processed
	return ps
}

// zeroIntervals clears the interval accumulators after a snapshot.
func (a *arena) zeroIntervals() {
	clear(a.events)
	clear(a.processed)
	clear(a.correct)
	clear(a.offline)
	clear(a.exits)
	clear(a.energyMJ)
	clear(a.harvestMJ)
}

// worker owns everything one shard goroutine reuses across devices:
// the intermittent engine, the storage copy, the episode kernel and the
// Q-table headers it binds onto arena slices, and the schedule scratch.
// All values — a worker is a single stack-ish block that touches the
// heap only through the arenas and the shared read-only population
// state.
type worker struct {
	f     *Fleet
	eng   intermittent.Engine
	store energy.Storage
	ep    core.Episode

	exitTab   qlearn.Table
	incrTab   qlearn.Table
	exitAgent qlearn.ExitAgent
	incrAgent qlearn.IncrementalAgent

	// schedRNG regenerates a device's event schedule into the scratch
	// below; a schedule per device would dwarf the Q arenas.
	schedRNG tensor.RNG
	times    []int
	samples  []int

	// execs/states are per-population compiled-plan cursors for
	// empirical populations (lazily built; plan itself is shared).
	execs  []*plan.Exec
	states []*plan.State
}

// runChunk runs one shard: per-population setup (table headers, agent
// views, the episode kernel, scratch sizing), then the device loop with
// churn applied.
func (w *worker) runChunk(jb job) {
	p := jb.p
	f := w.f
	m := len(p.Costs)
	eps := popEpsilon(p, jb.epoch, f.Epochs)
	w.exitTab = qlearn.Table{
		NumStates: p.EnergyBins * p.PowerBins, NumActions: m,
		Alpha: p.Alpha, Gamma: p.Gamma, Epsilon: eps,
	}
	w.incrTab = qlearn.Table{
		NumStates: p.ConfBins * p.EnergyBins, NumActions: 2,
		Alpha: p.Alpha, Gamma: p.Gamma, Epsilon: eps,
	}
	w.exitAgent = qlearn.ExitAgent{
		Table: &w.exitTab, EnergyBins: p.EnergyBins, PowerBins: p.PowerBins,
		MaxEnergyMJ: p.Storage.CapacityMJ,
	}
	w.incrAgent = qlearn.IncrementalAgent{
		Table: &w.incrTab, ConfidenceBins: p.ConfBins, EnergyBins: p.EnergyBins,
		MaxEnergyMJ: p.Storage.CapacityMJ,
	}
	w.ep = core.Episode{
		Mode: p.Mode, Deployed: p.Deployed,
		Costs: p.Costs, MargCosts: p.MargCosts, Static: p.Static,
		ExitAgent: &w.exitAgent, IncrAgent: &w.incrAgent,
	}
	if cap(w.times) < f.Events {
		w.times = make([]int, 0, f.Events)
	}
	if p.Empirical {
		if w.execs == nil {
			w.execs = make([]*plan.Exec, len(f.Pops))
			w.states = make([]*plan.State, len(f.Pops))
		}
		if w.execs[p.Index] == nil {
			w.execs[p.Index] = p.Plan.NewExec()
			w.states[p.Index] = p.Plan.NewState()
		}
		w.ep.Plan, w.ep.PlanState = w.execs[p.Index], w.states[p.Index]
		if cap(w.samples) < f.Events {
			w.samples = make([]int, 0, f.Events)
		}
	}

	for di := jb.lo; di < jb.hi; di++ {
		gidx := uint64(p.Start + di)
		offline, capFactor := churnAt(f.BaseSeed, p, gidx, jb.epoch, f.Epochs)
		if offline {
			jb.a.offline[di]++
			continue
		}
		w.runEpisode(p, jb.a, di, gidx, capFactor)
	}
}

// runEpisode replays one device's event schedule over its trace for one
// epoch through the worker's episode kernel, with the device's RNG and
// Q-tables bound in from the arena. This is the fleet's innermost loop:
// it must not allocate.
//
//ehlint:hotpath
func (w *worker) runEpisode(p *Population, a *arena, di int, gidx uint64, capFactor float64) {
	f := w.f

	// Fresh storage copy per episode, with any churn-rule capacitor
	// degradation applied. Binning stays on the base capacity so a
	// degraded device's Q-state indices keep meaning.
	w.store = p.Storage
	if capFactor < 1 {
		c := p.Storage.CapacityMJ * capFactor
		if c < p.Storage.TurnOnMJ {
			c = p.Storage.TurnOnMJ
		}
		w.store.CapacityMJ = c
	}
	v := int(a.variants[di])
	tr := p.Traces[v]
	w.eng.Reset(p.Device, &w.store, tr)
	w.exitAgent.MaxPowerMW = p.TracePeaks[v]

	w.exitTab.Bind(a.exitQ[di*p.exitStride : (di+1)*p.exitStride])
	w.incrTab.Bind(a.incrQ[di*p.incrStride : (di+1)*p.incrStride])
	w.ep.RNG = &a.rngs[di]

	// Regenerate the device's schedule (identical every epoch — the
	// learning episodes replay one schedule, as the paper's Fig. 7a
	// runs do) into worker scratch.
	dur := tr.Duration()
	w.schedRNG.Reseed(exper.DeriveSeed(f.BaseSeed, gidx, saltSched))
	w.times = w.times[:0]
	for i := 0; i < f.Events; i++ {
		w.times = append(w.times, w.schedRNG.Intn(dur))
	}
	slices.Sort(w.times)
	if p.Empirical {
		w.samples = w.samples[:0]
		n := f.TestSet.Len()
		for i := 0; i < f.Events; i++ {
			w.samples = append(w.samples, w.schedRNG.Intn(n))
		}
	}

	var out metrics.EventOutcome
	var nProcessed, nCorrect uint32
	var energyMJ float64
	m := len(p.Costs)
	for idx := 0; idx < f.Events; idx++ {
		deadline := dur
		if idx+1 < f.Events {
			deadline = w.times[idx+1]
		}
		var sample *dataset.Sample
		if p.Empirical {
			sample = &f.TestSet.Samples[w.samples[idx]]
		}
		w.ep.Event(&w.eng, w.times[idx], deadline, sample, &out, &energyMJ)
		if out.Processed {
			nProcessed++
			if out.Correct {
				nCorrect++
			}
			a.exits[di*m+out.Exit]++
		}
	}
	w.ep.End(&w.eng)

	a.events[di] += uint32(f.Events)
	a.processed[di] += nProcessed
	a.correct[di] += nCorrect
	a.energyMJ[di] += energyMJ
	a.harvestMJ[di] += w.eng.Stats().HarvestedMJ
}
