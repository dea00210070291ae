// Package search implements the paper's §III offline compression search:
// two DDPG agents (pruning, quantization) walk the network layer-by-layer
// emitting per-layer preserve ratios and bitwidths, the candidate policy
// is measured against the F_target/S_target constraints (Eq. 8), the exit
// probabilities under the EH power trace and event distribution are
// estimated, and the exit-usage-weighted accuracy reward (Eq. 10–12) is
// fed back. Random search and simulated annealing are provided as
// ablation baselines.
package search

import (
	"context"
	"fmt"
	"math"

	"repro/internal/accmodel"
	"repro/internal/compress"
	"repro/internal/ddpg"
	"repro/internal/energy"
	"repro/internal/mcu"
	"repro/internal/multiexit"
	"repro/internal/nn"
)

// ObsDim is the dimensionality of the shared layer observation (Eq. 9):
// layer index, previous α/bw/ba, FLOPs reduced/remaining, size
// reduced/remaining, conv indicator, cin, cout, weight size.
const ObsDim = 12

// Config parameterizes a search.
type Config struct {
	// Episodes is the number of full layer walks (default 150).
	Episodes int
	// FTarget and STarget are the Eq. 8 constraints (defaults: the
	// paper's 1.15 MFLOPs and 16 KB).
	FTarget int64
	STarget int64
	// Lambda1/Lambda2 scale the two rewards (default 1).
	Lambda1 float64
	Lambda2 float64
	// Trace/Schedule/Device/Storage define the EH environment used to
	// estimate exit probabilities. Trace and Schedule are required.
	Trace    *energy.Trace
	Schedule *energy.Schedule
	Device   *mcu.Device
	Storage  *energy.Storage
	// UpdatesPerEpisode is the number of gradient steps per episode
	// (default 20).
	UpdatesPerEpisode int
	Seed              uint64
}

func (c *Config) fillDefaults() error {
	if c.Episodes == 0 {
		c.Episodes = 150
	}
	if c.FTarget == 0 {
		c.FTarget = compress.PaperFTargetFLOPs
	}
	if c.STarget == 0 {
		c.STarget = compress.PaperSTargetBytes
	}
	if c.Lambda1 == 0 {
		c.Lambda1 = 1
	}
	if c.Lambda2 == 0 {
		c.Lambda2 = 1
	}
	if c.Device == nil {
		c.Device = mcu.MSP432()
	}
	if c.Storage == nil {
		c.Storage = energy.DefaultStorage()
	}
	if c.UpdatesPerEpisode == 0 {
		c.UpdatesPerEpisode = 20
	}
	if c.Trace == nil || c.Schedule == nil {
		return fmt.Errorf("search: Trace and Schedule are required")
	}
	return nil
}

// Result is the search outcome.
type Result struct {
	// Policy is the best feasible policy found (nil if none was).
	Policy *compress.Policy
	// Racc is its exit-weighted accuracy reward (Eq. 10).
	Racc float64
	// ExitAccs are its surrogate per-exit accuracies.
	ExitAccs []float64
	// ExitShares are the estimated selection probabilities p_i (the
	// last entry beyond the exits is the missed-event share).
	ExitShares []float64
	// Measure is the policy's cost summary.
	Measure compress.Measure
	// History records the best-so-far Racc after each episode.
	History []float64
	// Episodes actually run.
	Episodes int
}

// layerInfo is the static metadata of one compressible layer.
type layerInfo struct {
	name   string
	isConv bool
	cin    int
	cout   int
	flops  float64
	wcount float64
}

type env struct {
	net    *multiexit.Network
	sur    *accmodel.Surrogate
	snap   *compress.Snapshot
	layers []layerInfo
	// totals for observation normalization
	totalFLOPs  float64
	totalWeight float64
	cfg         Config
}

func newEnv(net *multiexit.Network, sur *accmodel.Surrogate, cfg Config) *env {
	e := &env{net: net, sur: sur, snap: compress.NewSnapshot(net), cfg: cfg}
	for _, l := range net.CompressibleLayers() {
		var info layerInfo
		info.name = l.Name()
		switch layer := l.(type) {
		case *nn.Conv2D:
			info.isConv = true
			info.cin = layer.InC
			info.cout = layer.OutC
			info.flops = float64(layer.FLOPs())
			info.wcount = float64(layer.WeightCount())
		case *nn.Dense:
			info.cin = layer.In
			info.cout = layer.Out
			info.flops = float64(layer.FLOPs())
			info.wcount = float64(layer.WeightCount())
		}
		e.layers = append(e.layers, info)
		e.totalFLOPs += info.flops
		e.totalWeight += info.wcount
	}
	return e
}

// observe builds the Eq. 9 observation for layer l given the decisions so
// far.
func (e *env) observe(l int, policy []compress.LayerPolicy) []float32 {
	L := len(e.layers)
	var prevA, prevBW, prevBA float64 = 1, 1, 1
	if l > 0 {
		prevA = policy[l-1].PreserveRatio
		prevBW = float64(policy[l-1].WeightBits) / compress.MaxBits
		prevBA = float64(policy[l-1].ActBits) / compress.MaxBits
	}
	var flopReduced, sizeReduced float64
	for i := 0; i < l; i++ {
		flopReduced += e.layers[i].flops * (1 - policy[i].PreserveRatio)
		sizeReduced += e.layers[i].wcount * (1 - policy[i].PreserveRatio*float64(policy[i].WeightBits)/32)
	}
	var flopRemain, sizeRemain float64
	for i := l; i < L; i++ {
		flopRemain += e.layers[i].flops
		sizeRemain += e.layers[i].wcount
	}
	info := e.layers[l]
	iconv := 0.0
	if info.isConv {
		iconv = 1
	}
	obs := []float64{
		float64(l) / float64(L),
		prevA,
		prevBW,
		prevBA,
		flopReduced / e.totalFLOPs,
		flopRemain / e.totalFLOPs,
		sizeReduced / e.totalWeight,
		sizeRemain / e.totalWeight,
		iconv,
		math.Min(1, float64(info.cin)/1024),
		math.Min(1, float64(info.cout)/1024),
		info.wcount / e.totalWeight,
	}
	out := make([]float32, ObsDim)
	for i, v := range obs {
		out[i] = float32(v)
	}
	return out
}

// evaluate applies the candidate policy, measures it, estimates exit
// shares under the EH environment, and returns (Racc, measure, shares,
// accs). The network is restored afterwards.
func (e *env) evaluate(lps []compress.LayerPolicy) (float64, compress.Measure, []float64, []float64, error) {
	policy := &compress.Policy{Layers: lps}
	if err := compress.Apply(e.net, policy); err != nil {
		return 0, compress.Measure{}, nil, nil, err
	}
	m := compress.MeasureNetwork(e.net)
	e.snap.Restore()

	accs := e.sur.ExitAccuracies(policy)
	costs := make([]float64, len(m.ExitFLOPs))
	for i, f := range m.ExitFLOPs {
		costs[i] = e.cfg.Device.ComputeEnergyMJ(f)
	}
	shares := EstimateExitShares(costs, e.cfg.Trace, e.cfg.Schedule, e.cfg.Storage)
	var racc float64
	for i, acc := range accs {
		racc += shares[i] * acc
	}
	return racc, m, shares, accs, nil
}

// EstimateExitShares runs the fast static simulation the compression
// phase assumes (§IV: "the exit selection for an event j is determined
// statically"): the deepest affordable exit is chosen per event. It
// returns one share per exit plus a final missed-event share; shares sum
// to 1 over all events.
func EstimateExitShares(exitCostsMJ []float64, trace *energy.Trace, schedule *energy.Schedule, storage *energy.Storage) []float64 {
	store := *storage
	store.SetLevel(store.TurnOnMJ)
	m := len(exitCostsMJ)
	counts := make([]int, m+1)
	evIdx := 0
	events := schedule.Events
	for t := 0; t < trace.Duration(); t++ {
		store.Harvest(trace.At(t), 1)
		for evIdx < len(events) && events[evIdx].T <= t {
			best := -1
			for i, c := range exitCostsMJ {
				if c <= store.Available() {
					best = i
				}
			}
			if best < 0 {
				counts[m]++
			} else {
				store.Spend(exitCostsMJ[best])
				counts[best]++
			}
			evIdx++
		}
	}
	for ; evIdx < len(events); evIdx++ {
		counts[m]++
	}
	shares := make([]float64, m+1)
	total := len(events)
	if total == 0 {
		return shares
	}
	for i, c := range counts {
		shares[i] = float64(c) / float64(total)
	}
	return shares
}

// RL runs the dual-agent DDPG search of §III-B. The context is checked
// between episodes; on cancellation the best-so-far Result is returned
// alongside ctx.Err().
func RL(ctx context.Context, net *multiexit.Network, sur *accmodel.Surrogate, cfg Config) (*Result, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	e := newEnv(net, sur, cfg)
	L := len(e.layers)
	if L == 0 {
		return nil, fmt.Errorf("search: network has no compressible layers")
	}

	pruneAgent, err := ddpg.New(ddpg.Config{ObsDim: ObsDim, ActionDim: 1, Seed: cfg.Seed + 1})
	if err != nil {
		return nil, err
	}
	quantAgent, err := ddpg.New(ddpg.Config{ObsDim: ObsDim, ActionDim: 2, Seed: cfg.Seed + 2})
	if err != nil {
		return nil, err
	}

	res := &Result{}
	best := math.Inf(-1)

	for ep := 0; ep < cfg.Episodes; ep++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		lps := make([]compress.LayerPolicy, L)
		obss := make([][]float32, L)
		pruneActs := make([][]float32, L)
		quantActs := make([][]float32, L)
		for l := 0; l < L; l++ {
			obs := e.observe(l, lps)
			obss[l] = obs
			pa := pruneAgent.Act(obs, true)
			qa := quantAgent.Act(obs, true)
			pruneActs[l] = pa
			quantActs[l] = qa
			lps[l] = compress.LayerPolicy{
				Layer:         e.layers[l].name,
				PreserveRatio: compress.SnapPreserve(float64(pa[0])),
				WeightBits:    compress.QuantizeRatio(float64(qa[0]), compress.MinBits, compress.MaxBits),
				ActBits:       compress.QuantizeRatio(float64(qa[1]), compress.MinBits, compress.MaxBits),
			}
		}
		racc, m, shares, accs, err := e.evaluate(lps)
		if err != nil {
			return nil, err
		}

		// Eq. 11–12 rewards, assigned at the terminal step.
		rPrune := -cfg.Lambda1
		if m.ModelFLOPs <= cfg.FTarget {
			rPrune = cfg.Lambda1 * racc
		}
		rQuant := -cfg.Lambda2
		if m.WeightBytes <= cfg.STarget {
			rQuant = cfg.Lambda2 * racc
		}
		for l := 0; l < L; l++ {
			next := make([]float32, ObsDim)
			terminal := l == L-1
			if !terminal {
				next = obss[l+1]
			}
			pr, qr := 0.0, 0.0
			if terminal {
				pr, qr = rPrune, rQuant
			}
			pruneAgent.Remember(ddpg.Transition{Obs: obss[l], Action: pruneActs[l], Reward: pr, NextObs: next, Terminal: terminal})
			quantAgent.Remember(ddpg.Transition{Obs: obss[l], Action: quantActs[l], Reward: qr, NextObs: next, Terminal: terminal})
		}
		for u := 0; u < cfg.UpdatesPerEpisode; u++ {
			pruneAgent.Update()
			quantAgent.Update()
		}
		pruneAgent.EndEpisode()
		quantAgent.EndEpisode()

		feasible := m.ModelFLOPs <= cfg.FTarget && m.WeightBytes <= cfg.STarget
		if feasible && racc > best {
			best = racc
			res.Policy = &compress.Policy{Layers: append([]compress.LayerPolicy(nil), lps...)}
			res.Racc = racc
			res.Measure = m
			res.ExitShares = shares
			res.ExitAccs = accs
		}
		if best > math.Inf(-1) {
			res.History = append(res.History, best)
		} else {
			res.History = append(res.History, 0)
		}
		res.Episodes = ep + 1
	}
	if res.Policy == nil {
		return res, fmt.Errorf("search: no feasible policy found in %d episodes", cfg.Episodes)
	}
	return res, nil
}
