// Package qlearn implements the paper's §IV runtime decision layer: a
// lightweight tabular Q-learning agent that selects the exit for each
// event from the (stored energy, charging efficiency) state, and a second
// Q-table that decides whether to continue an inference incrementally
// from the (result confidence, stored energy) state. Both tables update
// with the standard Q-learning rule (Eq. 16); the whole learner is a
// lookup table, matching the paper's negligible-overhead claim.
package qlearn

import (
	"fmt"

	"repro/internal/tensor"
)

// Table is a tabular Q-function with ε-greedy action selection.
type Table struct {
	NumStates  int
	NumActions int
	// Alpha is the learning rate, Gamma the discount, Epsilon the
	// exploration rate.
	Alpha   float64
	Gamma   float64
	Epsilon float64

	q []float64
}

// NewTable builds a zero-initialized Q-table.
func NewTable(states, actions int, alpha, gamma, epsilon float64) *Table {
	if states <= 0 || actions <= 0 {
		panic(fmt.Sprintf("qlearn: invalid table size %d×%d", states, actions))
	}
	return &Table{
		NumStates:  states,
		NumActions: actions,
		Alpha:      alpha,
		Gamma:      gamma,
		Epsilon:    epsilon,
		q:          make([]float64, states*actions),
	}
}

// Bind points the table at an externally owned backing slice of exactly
// NumStates×NumActions values. It is how the fleet simulator keeps one
// Table header per worker while the Q-values of millions of devices live
// in a packed arena: re-binding is a slice assignment, so switching the
// learner from one device to the next costs nothing and allocates
// nothing. All reads and updates go through the bound slice; the caller
// owns its lifetime.
func (t *Table) Bind(q []float64) {
	if len(q) != t.NumStates*t.NumActions {
		panic(fmt.Sprintf("qlearn: Bind with %d values for a %d×%d table", len(q), t.NumStates, t.NumActions))
	}
	t.q = q
}

// Q returns Q(s, a).
func (t *Table) Q(s, a int) float64 { return t.q[s*t.NumActions+a] }

// SetQ sets Q(s, a); tests and LUT initialization use this.
func (t *Table) SetQ(s, a int, v float64) { t.q[s*t.NumActions+a] = v }

// Best returns argmax_a Q(s, a), breaking ties toward the lowest index
// (the cheapest exit, for the exit agent).
func (t *Table) Best(s int) int {
	row := t.q[s*t.NumActions : (s+1)*t.NumActions]
	best := 0
	for a, v := range row {
		if v > row[best] {
			best = a
		}
	}
	return best
}

// MaxQ returns max_a Q(s, a).
func (t *Table) MaxQ(s int) float64 {
	row := t.q[s*t.NumActions : (s+1)*t.NumActions]
	m := row[0]
	for _, v := range row[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Select returns an ε-greedy action for state s.
func (t *Table) Select(s int, rng *tensor.RNG) int {
	if rng != nil && rng.Float64() < t.Epsilon {
		return rng.Intn(t.NumActions)
	}
	return t.Best(s)
}

// Update applies the paper's Eq. 16:
//
//	Q(s,a) += α (r + γ·max_a' Q(s',a') − Q(s,a))
func (t *Table) Update(s, a int, r float64, s2 int) {
	i := s*t.NumActions + a
	t.q[i] += t.Alpha * (r + t.Gamma*t.MaxQ(s2) - t.q[i])
}

// UpdateTerminal applies the update with no bootstrap term (end of an
// episode or when the successor state is not observed).
func (t *Table) UpdateTerminal(s, a int, r float64) {
	i := s*t.NumActions + a
	t.q[i] += t.Alpha * (r - t.q[i])
}

// Bin discretizes v ∈ [0, max] into one of n bins.
func Bin(v, max float64, n int) int {
	if n <= 1 || max <= 0 {
		return 0
	}
	if v <= 0 {
		return 0
	}
	if v >= max {
		return n - 1
	}
	return int(v / max * float64(n))
}

// ExitAgent selects an inference exit from the EH state (§IV): state is
// the discretized (available energy, recent charging power) pair and the
// action set is the exits.
type ExitAgent struct {
	Table      *Table
	EnergyBins int
	PowerBins  int
	// MaxEnergyMJ and MaxPowerMW bound the discretization ranges
	// (buffer capacity and trace peak power).
	MaxEnergyMJ float64
	MaxPowerMW  float64
}

// The paper's lightweight learning rates, both agents' defaults.
const (
	DefaultAlpha = 0.2
	DefaultGamma = 0.9
)

// NewExitAgent builds the exit-selection learner with the paper's
// lightweight defaults: α=0.2, γ=0.9, ε=0.1.
func NewExitAgent(exits, energyBins, powerBins int, maxEnergyMJ, maxPowerMW float64) *ExitAgent {
	return &ExitAgent{
		Table:       NewTable(energyBins*powerBins, exits, DefaultAlpha, DefaultGamma, 0.1),
		EnergyBins:  energyBins,
		PowerBins:   powerBins,
		MaxEnergyMJ: maxEnergyMJ,
		MaxPowerMW:  maxPowerMW,
	}
}

// State maps the continuous observation to a table state.
func (a *ExitAgent) State(energyMJ, powerMW float64) int {
	eb := Bin(energyMJ, a.MaxEnergyMJ, a.EnergyBins)
	pb := Bin(powerMW, a.MaxPowerMW, a.PowerBins)
	return eb*a.PowerBins + pb
}

// IncrementalAgent makes the second §IV decision: given the confidence of
// the result at the chosen exit and the energy left, continue to the next
// exit (action 1) or emit the current result (action 0).
type IncrementalAgent struct {
	Table          *Table
	ConfidenceBins int
	EnergyBins     int
	MaxEnergyMJ    float64
}

// Incremental actions.
const (
	ActionStop     = 0
	ActionContinue = 1
)

// NewIncrementalAgent builds the continue/stop learner.
func NewIncrementalAgent(confidenceBins, energyBins int, maxEnergyMJ float64) *IncrementalAgent {
	return &IncrementalAgent{
		Table:          NewTable(confidenceBins*energyBins, 2, DefaultAlpha, DefaultGamma, 0.1),
		ConfidenceBins: confidenceBins,
		EnergyBins:     energyBins,
		MaxEnergyMJ:    maxEnergyMJ,
	}
}

// State maps (confidence ∈ [0,1], energy) to a table state.
func (a *IncrementalAgent) State(confidence, energyMJ float64) int {
	cb := Bin(confidence, 1, a.ConfidenceBins)
	eb := Bin(energyMJ, a.MaxEnergyMJ, a.EnergyBins)
	return cb*a.EnergyBins + eb
}
