// Package compress implements the paper's §III network compression
// machinery: channel pruning driven by L1 input-channel importance
// (Eq. 2) and linear quantization of weights and activations with an
// L2-error-minimizing scale (Eq. 3), both applied per layer under a
// Policy. Uniform and nonuniform policies can be applied, measured
// (FLOPs/weight-size accounting), and rolled back via Snapshot so search
// algorithms can evaluate many candidate policies against one trained
// network.
package compress

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/multiexit"
	"repro/internal/nn"
)

// Bitwidth limits from §III-B: quantization bitwidths are searched in
// {1..8}; 32 denotes "unquantized" (full precision).
const (
	MinBits  = 1
	MaxBits  = 8
	FullBits = 32
)

// Pruning-rate bounds from §III-A: α ∈ [0.05, 1.0] with step 0.05.
const (
	MinPreserve  = 0.05
	MaxPreserve  = 1.0
	PreserveStep = 0.05
)

// LayerPolicy is the per-layer compression decision.
type LayerPolicy struct {
	Layer         string  // layer name (must exist in the network)
	PreserveRatio float64 // α: fraction of input channels kept
	WeightBits    int     // weight bitwidth (1..8, or 32 = full precision)
	ActBits       int     // activation bitwidth (1..8, or 32 = full precision)
}

// Validate checks bounds.
func (p LayerPolicy) Validate() error {
	if p.PreserveRatio < MinPreserve-1e-9 || p.PreserveRatio > MaxPreserve+1e-9 {
		return fmt.Errorf("compress: layer %q preserve ratio %.3f outside [%.2f, %.2f]",
			p.Layer, p.PreserveRatio, MinPreserve, MaxPreserve)
	}
	validBits := func(b int) bool { return b == FullBits || (b >= MinBits && b <= MaxBits) }
	if !validBits(p.WeightBits) {
		return fmt.Errorf("compress: layer %q weight bits %d invalid", p.Layer, p.WeightBits)
	}
	if !validBits(p.ActBits) {
		return fmt.Errorf("compress: layer %q activation bits %d invalid", p.Layer, p.ActBits)
	}
	return nil
}

// Policy is a full-network compression policy in layer order.
type Policy struct {
	Layers []LayerPolicy
}

// Validate checks all layer policies.
func (p *Policy) Validate() error {
	if len(p.Layers) == 0 {
		return fmt.Errorf("compress: empty policy")
	}
	seen := make(map[string]bool, len(p.Layers))
	for _, lp := range p.Layers {
		if err := lp.Validate(); err != nil {
			return err
		}
		if seen[lp.Layer] {
			return fmt.Errorf("compress: duplicate layer %q in policy", lp.Layer)
		}
		seen[lp.Layer] = true
	}
	return nil
}

// String renders a Fig. 4-style table.
func (p *Policy) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %9s %6s %6s\n", "layer", "preserve", "w-bit", "a-bit")
	for _, lp := range p.Layers {
		fmt.Fprintf(&b, "%-8s %9.2f %6d %6d\n", lp.Layer, lp.PreserveRatio, lp.WeightBits, lp.ActBits)
	}
	return b.String()
}

// Uniform builds a policy applying the same preserve ratio and bitwidths
// to every compressible layer of net — the baseline of Fig. 1b.
func Uniform(net *multiexit.Network, preserve float64, weightBits, actBits int) *Policy {
	var p Policy
	for _, l := range net.CompressibleLayers() {
		p.Layers = append(p.Layers, LayerPolicy{
			Layer:         l.Name(),
			PreserveRatio: preserve,
			WeightBits:    weightBits,
			ActBits:       actBits,
		})
	}
	return &p
}

// FullPrecision builds the identity policy (no pruning, 32-bit).
func FullPrecision(net *multiexit.Network) *Policy {
	return Uniform(net, 1.0, FullBits, FullBits)
}

// QuantizeRatio snaps a continuous action in [0, 1] to a discrete
// bitwidth in [minBits, maxBits] (§III-B action mapping).
func QuantizeRatio(a float64, minBits, maxBits int) int {
	if a < 0 {
		a = 0
	}
	if a > 1 {
		a = 1
	}
	b := minBits + int(a*float64(maxBits-minBits)+0.5)
	if b > maxBits {
		b = maxBits
	}
	return b
}

// SnapPreserve rounds a continuous preserve ratio onto the paper's
// 0.05-step grid, clamped to [MinPreserve, MaxPreserve].
func SnapPreserve(a float64) float64 {
	steps := int(a/PreserveStep + 0.5)
	v := float64(steps) * PreserveStep
	if v < MinPreserve {
		v = MinPreserve
	}
	if v > MaxPreserve {
		v = MaxPreserve
	}
	return v
}

// Apply compresses net in place according to policy: channel pruning then
// weight quantization then activation-bitwidth tagging, per layer. The
// original weights are destroyed; capture a Snapshot first to roll back.
func Apply(net *multiexit.Network, policy *Policy) error {
	if err := policy.Validate(); err != nil {
		return err
	}
	layers := net.CompressibleLayers()
	byName := make(map[string]nn.Layer, len(layers))
	for _, l := range layers {
		byName[l.Name()] = l
	}
	for _, lp := range policy.Layers {
		l, ok := byName[lp.Layer]
		if !ok {
			return fmt.Errorf("compress: policy names unknown layer %q", lp.Layer)
		}
		switch layer := l.(type) {
		case *nn.Conv2D:
			PruneConvChannels(layer, lp.PreserveRatio)
			if lp.WeightBits != FullBits {
				QuantizeWeights(layer.W.Value.Data, lp.WeightBits)
				layer.WeightBitsPerValue = lp.WeightBits
			}
			if lp.ActBits != FullBits {
				layer.ActBits = lp.ActBits
			}
		case *nn.Dense:
			PruneDenseInputs(layer, lp.PreserveRatio)
			if lp.WeightBits != FullBits {
				QuantizeWeights(layer.W.Value.Data, lp.WeightBits)
				layer.WeightBitsPerValue = lp.WeightBits
			}
			if lp.ActBits != FullBits {
				layer.ActBits = lp.ActBits
			}
		default:
			return fmt.Errorf("compress: layer %q is not compressible", lp.Layer)
		}
	}
	return nil
}

// KeepCount returns the number of channels kept out of c at ratio α,
// never below 1.
func KeepCount(c int, preserve float64) int {
	kept := int(preserve*float64(c) + 0.5)
	if kept < 1 {
		kept = 1
	}
	if kept > c {
		kept = c
	}
	return kept
}

// ChannelImportance computes the paper's Eq. 2 importance of each input
// channel of a conv weight tensor [outC, inC, kh, kw]: s_j = Σ_i |W_i,j|.
func ChannelImportance(w []float32, outC, inC, spatial int) []float64 {
	imp := make([]float64, inC)
	for o := 0; o < outC; o++ {
		for j := 0; j < inC; j++ {
			base := (o*inC + j) * spatial
			var s float64
			for _, v := range w[base : base+spatial] {
				if v < 0 {
					s -= float64(v)
				} else {
					s += float64(v)
				}
			}
			imp[j] += s
		}
	}
	return imp
}

// prunedChannelSet returns the indices of the (inC − kept) least
// important channels.
func prunedChannelSet(imp []float64, kept int) map[int]bool {
	type ch struct {
		idx int
		imp float64
	}
	chans := make([]ch, len(imp))
	for i, v := range imp {
		chans[i] = ch{i, v}
	}
	sort.Slice(chans, func(a, b int) bool {
		if chans[a].imp != chans[b].imp {
			return chans[a].imp < chans[b].imp
		}
		return chans[a].idx < chans[b].idx
	})
	pruned := make(map[int]bool)
	for _, c := range chans[:len(imp)-kept] {
		pruned[c.idx] = true
	}
	return pruned
}

// PruneConvChannels zero-masks the least-important input channels of a
// convolution so that ceil(α·inC) survive, and records the kept count for
// FLOPs/storage accounting.
func PruneConvChannels(l *nn.Conv2D, preserve float64) {
	kept := KeepCount(l.InC, preserve)
	l.KeptInC = kept
	if kept == l.InC {
		return
	}
	spatial := l.KH * l.KW
	imp := ChannelImportance(l.W.Value.Data, l.OutC, l.InC, spatial)
	pruned := prunedChannelSet(imp, kept)
	w := l.W.Value.Data
	for o := 0; o < l.OutC; o++ {
		for j := 0; j < l.InC; j++ {
			if !pruned[j] {
				continue
			}
			base := (o*l.InC + j) * spatial
			for k := 0; k < spatial; k++ {
				w[base+k] = 0
			}
		}
	}
}

// PruneDenseInputs zero-masks the least-important input activations of a
// dense layer (kernel size 1 in the paper's formulation).
func PruneDenseInputs(l *nn.Dense, preserve float64) {
	kept := KeepCount(l.In, preserve)
	l.KeptIn = kept
	if kept == l.In {
		return
	}
	imp := ChannelImportance(l.W.Value.Data, l.Out, l.In, 1)
	pruned := prunedChannelSet(imp, kept)
	w := l.W.Value.Data
	for o := 0; o < l.Out; o++ {
		row := w[o*l.In : (o+1)*l.In]
		for j := range row {
			if pruned[j] {
				row[j] = 0
			}
		}
	}
}
