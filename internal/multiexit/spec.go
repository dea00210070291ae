package multiexit

import (
	"fmt"

	"repro/internal/nn"
)

// Layer-spec kinds. Every layer kind the architecture builders emit is
// representable, so any built (and compressed) network round-trips.
const (
	LayerConv    = "conv"
	LayerDense   = "dense"
	LayerReLU    = "relu"
	LayerMaxPool = "maxpool"
	LayerAvgPool = "avgpool"
	LayerFlatten = "flatten"
)

// LayerSpec is the declarative form of one nn layer: enough to rebuild
// the layer exactly — including the compression metadata (kept channels,
// weight bitwidth, activation bitwidth) a deployed network carries — but
// holding no weights. Weights travel separately, keyed by parameter name.
type LayerSpec struct {
	Kind string `json:"kind"`
	Name string `json:"name"`

	// Conv geometry.
	InC     int `json:"inC,omitempty"`
	OutC    int `json:"outC,omitempty"`
	KH      int `json:"kh,omitempty"`
	KW      int `json:"kw,omitempty"`
	StrideH int `json:"strideH,omitempty"`
	StrideW int `json:"strideW,omitempty"`
	PadH    int `json:"padH,omitempty"`
	PadW    int `json:"padW,omitempty"`
	// NomH/NomW are the builder-declared nominal input dims that make
	// FLOPs accounting (and plan compilation) possible before any Forward.
	NomH int `json:"nomH,omitempty"`
	NomW int `json:"nomW,omitempty"`

	// Dense geometry.
	In    int  `json:"in,omitempty"`
	Out   int  `json:"out,omitempty"`
	Final bool `json:"final,omitempty"`

	// Compression metadata shared by conv and dense layers. Kept is
	// KeptInC (conv) or KeptIn (dense); 0 means unpruned.
	Kept       int `json:"kept,omitempty"`
	WeightBits int `json:"weightBits,omitempty"`
	ActBits    int `json:"actBits,omitempty"`

	// Pool geometry.
	Kernel int `json:"kernel,omitempty"`
	Stride int `json:"stride,omitempty"`
}

// SequentialSpec is the declarative form of one trunk segment or exit
// branch: its name and ordered layers.
type SequentialSpec struct {
	Name   string      `json:"name"`
	Layers []LayerSpec `json:"layers"`
}

// Spec is the declarative form of a multi-exit network's architecture:
// the structure (trunk segments and exit branches as ordered layer
// lists) without weights. It is pure data — JSON-serializable — so a
// deployment artifact can embed it and a loader can rebuild the exact
// network, parameter names and compression metadata included.
type Spec struct {
	Classes  int              `json:"classes"`
	Segments []SequentialSpec `json:"segments"`
	Branches []SequentialSpec `json:"branches"`
}

// Describe captures the network's architecture as a Spec. It fails on
// layer types outside the deployable set (conv, dense, ReLU, max/avg
// pool, flatten).
func Describe(net *Network) (*Spec, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	s := &Spec{Classes: net.Classes}
	for i, seg := range net.Segments {
		ls, err := describeSequential(seg)
		if err != nil {
			return nil, fmt.Errorf("multiexit: segment %d: %w", i, err)
		}
		s.Segments = append(s.Segments, SequentialSpec{Name: seg.Name(), Layers: ls})
	}
	for i, br := range net.Branches {
		ls, err := describeSequential(br)
		if err != nil {
			return nil, fmt.Errorf("multiexit: branch %d: %w", i, err)
		}
		s.Branches = append(s.Branches, SequentialSpec{Name: br.Name(), Layers: ls})
	}
	return s, nil
}

func describeSequential(seq *nn.Sequential) ([]LayerSpec, error) {
	specs := make([]LayerSpec, 0, len(seq.Layers))
	for _, l := range seq.Layers {
		switch layer := l.(type) {
		case *nn.Conv2D:
			specs = append(specs, LayerSpec{
				Kind: LayerConv, Name: layer.Name(),
				InC: layer.InC, OutC: layer.OutC,
				KH: layer.KH, KW: layer.KW,
				StrideH: layer.StrideH, StrideW: layer.StrideW,
				PadH: layer.PadH, PadW: layer.PadW,
				NomH: layer.NomH, NomW: layer.NomW,
				Kept: layer.KeptInC, WeightBits: layer.WeightBitsPerValue,
				ActBits: layer.ActBits,
			})
		case *nn.Dense:
			specs = append(specs, LayerSpec{
				Kind: LayerDense, Name: layer.Name(),
				In: layer.In, Out: layer.Out, Final: layer.Final,
				Kept: layer.KeptIn, WeightBits: layer.WeightBitsPerValue,
				ActBits: layer.ActBits,
			})
		case *nn.ReLU:
			specs = append(specs, LayerSpec{Kind: LayerReLU, Name: layer.Name()})
		case *nn.MaxPool2D:
			specs = append(specs, LayerSpec{
				Kind: LayerMaxPool, Name: layer.Name(),
				Kernel: layer.Kernel, Stride: layer.Stride,
			})
		case *nn.AvgPool2D:
			specs = append(specs, LayerSpec{
				Kind: LayerAvgPool, Name: layer.Name(),
				Kernel: layer.Kernel, Stride: layer.Stride,
			})
		case *nn.Flatten:
			specs = append(specs, LayerSpec{Kind: LayerFlatten, Name: layer.Name()})
		default:
			return nil, fmt.Errorf("layer %q (%T) is not deployable", l.Name(), l)
		}
	}
	return specs, nil
}

// FromSpec rebuilds a network from its Spec. Weights are zero — load
// them afterwards (by parameter name) to restore a deployment. The
// rebuilt network is structurally identical to the described one:
// same layer names, geometry, and compression metadata, so FLOPs,
// weight-size accounting, and plan compilation all reproduce exactly.
func FromSpec(s *Spec) (*Network, error) {
	if len(s.Segments) != len(s.Branches) {
		return nil, fmt.Errorf("multiexit: spec has %d segments but %d branches", len(s.Segments), len(s.Branches))
	}
	net := &Network{Classes: s.Classes}
	for i, ss := range s.Segments {
		seq, err := sequentialFromSpec(ss.Name, ss.Layers)
		if err != nil {
			return nil, fmt.Errorf("multiexit: segment %d: %w", i, err)
		}
		net.Segments = append(net.Segments, seq)
	}
	for i, ss := range s.Branches {
		seq, err := sequentialFromSpec(ss.Name, ss.Layers)
		if err != nil {
			return nil, fmt.Errorf("multiexit: branch %d: %w", i, err)
		}
		net.Branches = append(net.Branches, seq)
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return net, nil
}

// checkCompressionMeta bounds the pruning/quantization metadata against
// the layer's input width so a corrupted spec cannot build a layer whose
// accounting is out of range.
func checkCompressionMeta(ls LayerSpec, inputs int) error {
	if ls.Kept < 0 || ls.Kept > inputs {
		return fmt.Errorf("kept count %d outside [0, %d]", ls.Kept, inputs)
	}
	if ls.WeightBits < 0 || ls.WeightBits > 32 {
		return fmt.Errorf("weight bits %d outside [0, 32]", ls.WeightBits)
	}
	if ls.ActBits < 0 || ls.ActBits > 32 {
		return fmt.Errorf("activation bits %d outside [0, 32]", ls.ActBits)
	}
	return nil
}

func sequentialFromSpec(name string, specs []LayerSpec) (*nn.Sequential, error) {
	seq := nn.NewSequential(name)
	for _, ls := range specs {
		switch ls.Kind {
		case LayerConv:
			if ls.InC <= 0 || ls.OutC <= 0 || ls.KH <= 0 || ls.KW <= 0 ||
				ls.StrideH <= 0 || ls.StrideW <= 0 || ls.PadH < 0 || ls.PadW < 0 {
				return nil, fmt.Errorf("conv %q has invalid geometry %+v", ls.Name, ls)
			}
			l := nn.NewConv2D(ls.Name, ls.InC, ls.OutC, ls.KH, ls.KW, ls.StrideH, ls.PadH)
			// The constructor is square-only; restore any rectangular
			// stride/pad the original layer carried.
			l.StrideW, l.PadW = ls.StrideW, ls.PadW
			l.NomH, l.NomW = ls.NomH, ls.NomW
			if err := checkCompressionMeta(ls, ls.InC); err != nil {
				return nil, fmt.Errorf("conv %q: %w", ls.Name, err)
			}
			l.KeptInC = ls.Kept
			if ls.WeightBits > 0 {
				l.WeightBitsPerValue = ls.WeightBits
			}
			l.ActBits = ls.ActBits
			seq.Add(l)
		case LayerDense:
			if ls.In <= 0 || ls.Out <= 0 {
				return nil, fmt.Errorf("dense %q has invalid dims in=%d out=%d", ls.Name, ls.In, ls.Out)
			}
			l := nn.NewDense(ls.Name, ls.In, ls.Out)
			l.Final = ls.Final
			if err := checkCompressionMeta(ls, ls.In); err != nil {
				return nil, fmt.Errorf("dense %q: %w", ls.Name, err)
			}
			l.KeptIn = ls.Kept
			if ls.WeightBits > 0 {
				l.WeightBitsPerValue = ls.WeightBits
			}
			l.ActBits = ls.ActBits
			seq.Add(l)
		case LayerReLU:
			seq.Add(nn.NewReLU(ls.Name))
		case LayerMaxPool:
			if ls.Kernel <= 0 || ls.Stride <= 0 {
				return nil, fmt.Errorf("maxpool %q has invalid kernel/stride %d/%d", ls.Name, ls.Kernel, ls.Stride)
			}
			seq.Add(nn.NewMaxPool2D(ls.Name, ls.Kernel, ls.Stride))
		case LayerAvgPool:
			if ls.Kernel <= 0 || ls.Stride <= 0 {
				return nil, fmt.Errorf("avgpool %q has invalid kernel/stride %d/%d", ls.Name, ls.Kernel, ls.Stride)
			}
			seq.Add(nn.NewAvgPool2D(ls.Name, ls.Kernel, ls.Stride))
		case LayerFlatten:
			seq.Add(nn.NewFlatten(ls.Name))
		default:
			return nil, fmt.Errorf("unknown layer kind %q (layer %q)", ls.Kind, ls.Name)
		}
	}
	return seq, nil
}
