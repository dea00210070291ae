package core

import (
	"math"

	"repro/internal/dataset"
	"repro/internal/intermittent"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/qlearn"
	"repro/internal/tensor"
)

// Defaults of the §IV runtime, shared by RuntimeConfig and the fleet
// simulator's populations.
const (
	// DefaultConfidenceThreshold is the static LUT's incremental-
	// inference threshold.
	DefaultConfidenceThreshold = 0.65
	// DefaultEnergyBins, DefaultPowerBins and DefaultConfBins discretize
	// the two agents' Q-states.
	DefaultEnergyBins = 10
	DefaultPowerBins  = 6
	DefaultConfBins   = 8
)

const (
	// powerWindow is the trailing window (s) of the charging-efficiency
	// observation.
	powerWindow = 60
	// incrEnergyPenalty shapes the continue-action reward:
	// r(continue) = correctness − penalty·(marginalCost/capacity). The
	// paper specifies the incremental decision's state (confidence,
	// energy) but not its reward; without an energy term the learner
	// degenerates to "always continue" since deeper exits are never less
	// accurate.
	incrEnergyPenalty = 0.6
)

// SeedExitQ gives an exit Q-table its uninformed starting policy: small
// random values make the initial exit preferences arbitrary (Fig. 7a's
// learning curve starts well below the converged value), and learning
// overwrites them within a few episodes.
func SeedExitQ(t *qlearn.Table, rng *tensor.RNG) {
	for s := 0; s < t.NumStates; s++ {
		for a := 0; a < t.NumActions; a++ {
			t.SetQ(s, a, 0.05*rng.Float64())
		}
	}
}

// Episode is the §IV decision loop of one device, run event by event:
// the exit choice from (stored energy, charging efficiency), capped at
// what the buffer can pay for, then continue-or-stop from (confidence,
// energy) until the result is emitted. Runtime.Run drives one over a
// Schedule; the fleet simulator keeps one per worker and points its RNG
// and agent tables at each device's arena slices in turn. Event
// allocates nothing.
type Episode struct {
	Mode               PolicyMode
	DisableIncremental bool
	Deployed           *Deployed
	// Costs[i] is the energy (mJ) of an inference to exit i on the
	// engine's device; MargCosts[i] the energy of resuming from exit i
	// to i+1. Computed once (Deployed.EnergyCosts), they are the values
	// Engine.EnergyFor would give.
	Costs, MargCosts []float64
	Static           *qlearn.StaticLUT
	ExitAgent        *qlearn.ExitAgent
	IncrAgent        *qlearn.IncrementalAgent
	// RNG drives exploration and the surrogate correctness draws.
	RNG *tensor.RNG
	// Plan/PlanState run empirical-mode events on the compiled plan
	// (one State reused across events keeps inference allocation-free).
	// Both must be set when events carry samples.
	Plan      *plan.Exec
	PlanState *plan.State

	// pending is the exit-agent transition awaiting its successor
	// state, which is only observed at the next event (the event-level
	// MDP's true transition). Held by value — re-boxing it per event was
	// the episode loop's dominant allocation.
	pending    pendingUpdate
	hasPending bool

	// The current event's inference: the surrogate difficulty draw u,
	// or the empirical sample with a mark that PlanState holds its
	// inference. Held here and reset per event, so that no event
	// allocates.
	u           float64
	sample      *dataset.Sample
	planStarted bool
}

type pendingUpdate struct {
	state  int
	action int
	reward float64
}

// queueExitUpdate stages the exit agent's transition until the successor
// state is observed at the next event.
func (e *Episode) queueExitUpdate(state, action int, reward float64) {
	if e.Mode != PolicyQLearning {
		return
	}
	e.pending = pendingUpdate{state: state, action: action, reward: reward}
	e.hasPending = true
}

// boolReward maps a correctness bit to the paper's 0/1 reward signal.
func boolReward(c bool) float64 {
	if c {
		return 1
	}
	return 0
}

// Event runs the event that fires at second t through the two
// sequential decisions of §IV. deadline is when the next event fires
// (the trace's end for the last one): a wait for energy gives up there.
// sample is the event's input in empirical mode and nil for a surrogate
// draw. Event resets out and fills its fields other than EnergyMJ: the
// energy of each run it pays for is added to *energyMJ instead, which
// may point at out.EnergyMJ or at a running total, so each caller keeps
// its own summation order.
//
//ehlint:hotpath
func (e *Episode) Event(eng *intermittent.Engine, t, deadline int, sample *dataset.Sample, out *metrics.EventOutcome, energyMJ *float64) {
	*out = metrics.EventOutcome{T: t, Exit: -1}
	if eng.Now() > float64(t) {
		// Device still busy with the previous event: missed.
		return
	}
	eng.AdvanceTo(float64(t))
	e.u = e.RNG.Float64()
	e.sample, e.planStarted = sample, false

	store := eng.Store
	m := len(e.Costs)
	obsEnergy := store.Available()
	state := e.ExitAgent.State(obsEnergy, eng.RecentPower(powerWindow))

	// Complete the previous event's Q-update now that its successor
	// state (this event's state) is known.
	if e.hasPending {
		e.ExitAgent.Table.Update(e.pending.state, e.pending.action, e.pending.reward, state)
		e.hasPending = false
	}

	// Decision 1: select the exit. The action is capped at the deepest
	// exit the current buffer supports (§IV: exits are selected from
	// what "current energy can support"); the Q-agent's leverage is
	// choosing a *cheaper* exit than affordable to reserve energy for
	// future events. If nothing is affordable, the device waits for the
	// cheapest exit, preempted by the next event.
	var chosen int
	if e.Mode == PolicyQLearning {
		chosen = e.ExitAgent.Table.Select(state, e.RNG)
	} else {
		chosen = e.Static.SelectExit(obsEnergy)
		if chosen < 0 {
			// A fixed LUT has no wait action: with no affordable exit
			// the event is missed — exactly the §IV failure mode the
			// adaptive runtime fixes (and why Fig. 7b's static policy
			// processes fewer events than Q-learning).
			return
		}
	}
	exit := chosen
	for exit > 0 && store.Available() < e.Costs[exit] {
		exit--
	}

	// Wait for the cheapest exit if even that is unaffordable.
	if store.Available() < e.Costs[exit] {
		if !eng.WaitForEnergy(e.Costs[exit], float64(deadline)) {
			e.queueExitUpdate(state, chosen, 0) // missed: no energy arrived in time
			return
		}
	}
	flops := e.Deployed.ExitFLOPs[exit]
	res, ok := eng.RunAtomic(flops)
	if !ok {
		e.queueExitUpdate(state, chosen, 0)
		return
	}
	correct, conf := e.correctAt(exit)
	*energyMJ += res.EnergyMJ
	out.Processed = true
	out.Exit = exit
	out.InferenceFLOPs = flops
	out.FinishSec = res.FinishedAt

	// Exit-agent update: reward is the selected exit's accuracy (§IV).
	e.queueExitUpdate(state, chosen, e.Deployed.ExitAccs[exit])

	// Decision 2: incremental inference toward deeper exits.
	for exit < m-1 && !e.DisableIncremental {
		margCost := e.MargCosts[exit]
		incrState := e.IncrAgent.State(conf, store.Available())
		var goOn bool
		if e.Mode == PolicyQLearning {
			goOn = e.IncrAgent.Table.Select(incrState, e.RNG) == qlearn.ActionContinue
		} else {
			goOn = e.Static.Continue(conf, margCost, store.Available())
		}
		// Continuing pays an energy opportunity cost (see
		// incrEnergyPenalty): refining this result spends budget future
		// events will need. The capacity is the agent's energy range, the
		// undegraded one even when fleet churn has shrunk the capacitor.
		continuePenalty := incrEnergyPenalty * margCost / e.IncrAgent.MaxEnergyMJ
		if !goOn {
			if e.Mode == PolicyQLearning {
				e.IncrAgent.Table.UpdateTerminal(incrState, qlearn.ActionStop, boolReward(correct))
			}
			break
		}
		if store.Available() < margCost {
			// Suspending across a charging period checkpoints the
			// inference state (the paper's State → FRAM write) and pays
			// a restore before resuming.
			if !eng.WaitForEnergy(margCost, float64(deadline)) {
				// Energy never arrived; emit the current result.
				if e.Mode == PolicyQLearning {
					e.IncrAgent.Table.UpdateTerminal(incrState, qlearn.ActionContinue, boolReward(correct)-continuePenalty)
				}
				break
			}
		}
		marginal := e.Deployed.Marginal[exit][exit+1]
		res, ok := eng.RunAtomic(marginal)
		if !ok {
			break
		}
		exit++
		correct, conf = e.correctAt(exit)
		*energyMJ += res.EnergyMJ
		out.Exit = exit
		out.Incremental = true
		out.InferenceFLOPs += marginal
		out.FinishSec = res.FinishedAt
		if e.Mode == PolicyQLearning {
			nextState := e.IncrAgent.State(conf, store.Available())
			e.IncrAgent.Table.Update(incrState, qlearn.ActionContinue, boolReward(correct)-continuePenalty, nextState)
		}
	}
	out.Correct = correct
}

// End closes the episode at the trace's end: the last pending exit
// update is applied without a successor (the episode boundary), and the
// engine drains the rest of the trace so the harvest ledger covers the
// full duration (IEpmJ divides by total trace energy).
func (e *Episode) End(eng *intermittent.Engine) {
	if e.hasPending {
		e.ExitAgent.Table.UpdateTerminal(e.pending.state, e.pending.action, e.pending.reward)
		e.hasPending = false
	}
	eng.AdvanceTo(float64(eng.Trace.Duration()))
}

// correctAt reports whether the event's result at the given exit is
// correct, and the confidence of that result.
//
//ehlint:hotpath
func (e *Episode) correctAt(exit int) (bool, float64) {
	if s := e.sample; s != nil {
		// Zero-allocation InferTo/Resume on the reused plan state.
		if !e.planStarted {
			e.Plan.InferTo(e.PlanState, s.Image, exit)
			e.planStarted = true
		} else if exit > e.PlanState.Exit {
			e.Plan.Resume(e.PlanState, exit)
		}
		return e.PlanState.Predicted() == s.Label, e.PlanState.Confidence()
	}
	acc := e.Deployed.ExitAccs[exit]
	correct := e.u < acc
	// Confidence correlates with the margin between difficulty and the
	// exit's capability, mirroring entropy at a real classifier head:
	// easy events (u ≪ acc) are confident, borderline ones are not.
	var conf float64
	if correct {
		conf = 0.55 + 0.45*(acc-e.u)/math.Max(acc, 1e-9)
	} else {
		conf = 0.55 - 0.35*(e.u-acc)/math.Max(1-acc, 1e-9)
	}
	conf += 0.05 * e.RNG.NormFloat64()
	if conf < 0 {
		conf = 0
	}
	if conf > 1 {
		conf = 1
	}
	return correct, conf
}
