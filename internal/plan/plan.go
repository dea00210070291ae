// Package plan compiles a deployed multi-exit network into a
// zero-allocation inference program for the simulation hot loop.
//
// The generic layer walk (multiexit.Network.InferTo/Resume over
// nn.Sequential.Forward) allocates a fresh activation tensor — and, for
// convolutions, an im2col lowering — per layer per call. A compiled Plan
// does all of that work once, at deployment time: every layer's output
// shape and conv geometry is precomputed, a single reusable activation
// arena (double-buffered slabs plus an im2col scratch sized at compile
// time) replaces the per-layer tensors, and conv+bias+ReLU /
// dense+bias+ReLU sequences are fused into single steps. Executing a plan
// performs zero heap allocations.
//
// Two backends lower from the same compiled geometry:
//
//   - Float32 (Compile): conv steps drive the layer walk's own lowering
//     and GEMM (tensor.Im2ColSlice + tensor.GemmSerial), dense steps
//     the dot-product GEMM (tensor.GemmTransBSerial), and quantized
//     activations nn.FakeQuantizeSlice, in the layer walk's order,
//     against arena storage — plan output is bit-identical to the layer
//     walk at any worker count. On an amd64 CPU with AVX2 GemmSerial
//     runs the AVX2 kernel, elsewhere the pure-Go one; the two give the
//     same bits. Weights are live views into the network's parameters,
//     so a plan follows in-place weight updates without recompiling;
//     shapes, geometry, and quantization settings are snapshotted at
//     compile time.
//
//   - Int8 (CompileInt8Fast): the deployment-faithful integer pipeline —
//     int8 weights packed once for the host's GEMM kernel (int16 panels
//     for the AVX2 kernel on amd64 CPUs with AVX2, dual-lane panels for
//     the pure-Go kernel elsewhere), uint8 activations, exact int32
//     accumulators, and ReLU fused with a fixed-point (multiplier,
//     shift) requantization, the integer-only scheme of Jacob et al.
//     (arXiv:1712.05877). Scales are bound statically, so the hot loop
//     is integer arithmetic up to one float32 multiply per classifier
//     logit, and its logits are a deterministic function of weights and
//     input at any lane count and on either kernel. It approximates the
//     float result (gated by per-exit agreement tests); it does not
//     reproduce it bitwise.
//
// A Plan is immutable and safe to share; each goroutine runs it through
// its own Exec, and suspended inferences checkpoint into caller-owned
// State values — the paper's trunk-activation FRAM checkpoint, reusable
// across events without reallocation.
package plan

import (
	"fmt"
	"math"

	"repro/internal/compress"
	"repro/internal/multiexit"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Geometry is the input-image geometry a plan is compiled for.
type Geometry struct {
	C, H, W int
}

// Vol returns the input volume.
func (g Geometry) Vol() int { return g.C * g.H * g.W }

// InferGeometry derives the input geometry from the network's first
// trunk convolution (whose nominal spatial dims the architecture
// builders set). It fails on architectures that do not open with a conv
// layer carrying nominal dims: no plan can be sized for those.
func InferGeometry(net *multiexit.Network) (Geometry, error) {
	if len(net.Segments) == 0 {
		return Geometry{}, fmt.Errorf("plan: network has no segments")
	}
	for _, l := range net.Segments[0].Layers {
		if c, ok := l.(*nn.Conv2D); ok {
			if c.NomH <= 0 || c.NomW <= 0 {
				return Geometry{}, fmt.Errorf("plan: first conv %q has no nominal input dims", c.Name())
			}
			return Geometry{C: c.InC, H: c.NomH, W: c.NomW}, nil
		}
	}
	return Geometry{}, fmt.Errorf("plan: segment 0 has no conv layer to infer geometry from")
}

type opKind uint8

const (
	opConv opKind = iota
	opDense
	opReLU
	opPool
	opAvgPool
)

// shape tracks the activation shape during the compile-time walk and in
// checkpointed trunk states.
type shape struct {
	c, h, w  int
	features int
	flat     bool
}

func (s shape) vol() int {
	if s.flat {
		return s.features
	}
	return s.c * s.h * s.w
}

// step is one fused stage of a compiled program.
type step struct {
	kind opKind
	name string // the layer it was lowered from, e.g. "Conv1" or "Conv1.pool"

	// Weights and biases are live views into the network parameters
	// (float backend) — mutating the network's weights in place is
	// observed by the plan.
	w    []float32
	bias []float32

	// conv geometry and fused-GEMM dims.
	geom             tensor.ConvGeom
	outC             int
	colRows, colCols int

	// dense dims.
	in, out int

	// Post-GEMM epilogue: quantBits > 0 applies activation fake
	// quantization (tensor-wide, so it cannot fuse with ReLU); fuseReLU
	// clamps negatives inside the bias loop.
	quantBits int
	fuseReLU  bool
	final     bool

	// pool geometry.
	kernel, stride int

	inShape, outShape shape

	// int8 lowering (populated by CompileInt8Fast instead of w/bias):
	// the weights repacked once into the host kernel's panel layout, the
	// bias in accumulator units, and either the 31-bit fixed-point
	// requantization pair (mulFix, shiftFix) the packed-GEMM epilogue
	// fuses, or, on classifier heads, the scale that dequantizes
	// accumulators to float32 logits.
	biasAcc  []int32
	wpk      *tensor.PackedInt8
	mulFix   int32
	shiftFix uint
	deqScale float32
}

// Plan is a compiled inference program: the immutable part shared by all
// executors.
type Plan struct {
	segments [][]step
	branches [][]step
	classes  int
	geom     Geometry
	int8     bool

	// Arena sizing, computed during compilation.
	maxVol      int // largest activation volume any step touches
	maxColVol   int // largest im2col lowering
	trunkShapes []shape
	maxTrunkVol int
}

// NumExits returns the number of exits the plan serves.
func (p *Plan) NumExits() int { return len(p.segments) }

// Geometry returns the input geometry the plan was compiled for.
func (p *Plan) Geometry() Geometry { return p.geom }

// Int8 reports whether the plan is the integer lowering
// (CompileInt8Fast).
func (p *Plan) Int8() bool { return p.int8 }

// Int8Config parameterizes the int8 lowering.
type Int8Config struct {
	// ActMax is the assumed activation ceiling bound into requantization
	// steps with no calibration data (default 4).
	ActMax float64
	// Calibration images (CHW, [0,1] pixels), when provided, bind each
	// weighted layer's requantization ceiling to the max float activation
	// observed across them (with 10% headroom) — the standard
	// post-training-quantization calibration pass. Strongly recommended;
	// the runtime calibrates on a handful of deployment samples.
	Calibration []*tensor.Tensor
	// Scales, when non-nil, supplies precomputed per-layer activation
	// ceilings (see Calibrate) and wins over Calibration. This is how a
	// deployment artifact replays the exact calibration it was saved
	// with, without shipping the calibration images.
	Scales *Calibration
}

// Calibration is the exportable result of the int8 calibration pass:
// for every trunk segment and exit branch, the max observed float
// activation after each weighted (conv/dense) layer, in execution
// order. It is pure data, so a deployment artifact can persist it and
// a later CompileInt8Fast (via Int8Config.Scales) binds bit-identical
// requantization scales on any machine.
type Calibration struct {
	Segments [][]float64 `json:"segments"`
	Branches [][]float64 `json:"branches"`
}

// Calibrate runs the float network over the calibration images and
// returns the per-weighted-layer activation ceilings the int8 lowering
// binds. With no images the result is empty (CompileInt8Fast then
// falls back to the static ActMax).
func Calibrate(net *multiexit.Network, images []*tensor.Tensor) *Calibration {
	m := calibrate(net, images)
	c := &Calibration{
		Segments: make([][]float64, net.NumExits()),
		Branches: make([][]float64, net.NumExits()),
	}
	for i := 0; i < net.NumExits(); i++ {
		c.Segments[i] = m[calKey{false, i}]
		c.Branches[i] = m[calKey{true, i}]
	}
	return c
}

// calMap flattens a Calibration back into the keyed form compile uses;
// an empty per-sequential slice means "uncalibrated" there too.
func (c *Calibration) calMap() map[calKey][]float64 {
	m := map[calKey][]float64{}
	for i, v := range c.Segments {
		m[calKey{false, i}] = v
	}
	for i, v := range c.Branches {
		m[calKey{true, i}] = v
	}
	return m
}

// Compile builds the float32 program for the network at the given input
// geometry. The program is bit-identical to the layer walk; an error
// (a shape mismatch, or a layer outside the deployable set) means the
// network cannot run on a plan.
func Compile(net *multiexit.Network, geom Geometry) (*Plan, error) {
	return compile(net, geom, false, Int8Config{})
}

// CompileInt8Fast builds the integer program for the network at the
// given input geometry: int8 weights at each layer's quantization
// bitwidth (clamped to 8), uint8 activations with statically bound
// scales, int32 accumulators. Weights are repacked once, here, into the
// host kernel's panel layout (tensor.PackInt8Panels); requantize+ReLU is
// fused into the GEMM epilogue through a 31-bit fixed-point
// (multiplier, shift) pair bound per layer; activations flow in
// transposed im2col order; and float arithmetic survives only at the
// classifier-head dequantize. A pinned Calibration reproduces identical
// scales, and so identical logits, on any machine. Against the float
// backend the contract is statistical: per-exit agreement within ε.
func CompileInt8Fast(net *multiexit.Network, geom Geometry, cfg Int8Config) (*Plan, error) {
	if cfg.ActMax <= 0 {
		cfg.ActMax = 4
	}
	return compile(net, geom, true, cfg)
}

func compile(net *multiexit.Network, geom Geometry, toInt8 bool, cfg Int8Config) (*Plan, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if geom.C <= 0 || geom.H <= 0 || geom.W <= 0 {
		return nil, fmt.Errorf("plan: invalid input geometry %+v", geom)
	}
	p := &Plan{classes: net.Classes, geom: geom, int8: toInt8, maxVol: geom.Vol()}
	var calib map[calKey][]float64
	if toInt8 {
		if cfg.Scales != nil {
			calib = cfg.Scales.calMap()
		} else {
			calib = calibrate(net, cfg.Calibration)
		}
	}
	cur := shape{c: geom.C, h: geom.H, w: geom.W}
	// inScale is the activation scale flowing into the next weighted
	// layer on the int8 backend; the input image quantizes to [0,1] / 255
	// codes.
	inScale := 1.0 / 255.0
	for i, seg := range net.Segments {
		ops, out, err := p.compileSequential(seg, cur, toInt8, cfg, &inScale, calib[calKey{false, i}])
		if err != nil {
			return nil, fmt.Errorf("plan: segment %d: %w", i, err)
		}
		p.segments = append(p.segments, ops)
		cur = out
		p.trunkShapes = append(p.trunkShapes, cur)
		if v := cur.vol(); v > p.maxTrunkVol {
			p.maxTrunkVol = v
		}
		branchScale := inScale
		bops, bout, err := p.compileSequential(net.Branches[i], cur, toInt8, cfg, &branchScale, calib[calKey{true, i}])
		if err != nil {
			return nil, fmt.Errorf("plan: branch %d: %w", i, err)
		}
		if bout.vol() != net.Classes {
			return nil, fmt.Errorf("plan: branch %d yields %d values for %d classes", i, bout.vol(), net.Classes)
		}
		p.branches = append(p.branches, bops)
	}
	return p, nil
}

// calKey addresses one sequential (trunk segment or branch) in the
// calibration map.
type calKey struct {
	branch bool
	idx    int
}

// calibrate runs the float network over the calibration images and
// records, for every conv/dense layer, the max post-layer activation —
// the ceiling the int8 requantization steps bind. Returns an empty map
// (static ActMax everywhere) with no images.
func calibrate(net *multiexit.Network, images []*tensor.Tensor) map[calKey][]float64 {
	out := map[calKey][]float64{}
	record := func(seq *nn.Sequential, x *tensor.Tensor) (*tensor.Tensor, []float64) {
		var maxes []float64
		for _, l := range seq.Layers {
			x = l.Forward(x, false)
			switch l.(type) {
			case *nn.Conv2D, *nn.Dense:
				maxes = append(maxes, float64(x.MaxAbs()))
			}
		}
		return x, maxes
	}
	for _, img := range images {
		x := img
		if x.Rank() == 3 {
			s := x.Shape()
			x = x.Reshape(1, s[0], s[1], s[2])
		}
		for si, seg := range net.Segments {
			var maxes []float64
			x, maxes = record(seg, x)
			mergeMax(out, calKey{false, si}, maxes)
			_, bmaxes := record(net.Branches[si], x)
			mergeMax(out, calKey{true, si}, bmaxes)
		}
	}
	return out
}

func mergeMax(dst map[calKey][]float64, key calKey, vals []float64) {
	prev, ok := dst[key]
	if !ok || len(prev) != len(vals) {
		dst[key] = append([]float64(nil), vals...)
		return
	}
	for i, v := range vals {
		if v > prev[i] {
			prev[i] = v
		}
	}
}

// compileSequential shape-walks one nn.Sequential, emitting fused steps.
// inScale carries the int8 activation-scale chain through the walk;
// actMaxes holds the sequential's calibrated per-weighted-layer
// activation ceilings (may be nil → static cfg.ActMax).
func (p *Plan) compileSequential(seq *nn.Sequential, cur shape, toInt8 bool, cfg Int8Config, inScale *float64, actMaxes []float64) ([]step, shape, error) {
	var ops []step
	weightedIdx := 0
	// nextActMax yields the requantization ceiling for the next weighted
	// layer: calibrated max with 10% headroom when available.
	nextActMax := func() float64 {
		m := cfg.ActMax
		if weightedIdx < len(actMaxes) && actMaxes[weightedIdx] > 0 {
			m = actMaxes[weightedIdx] * 1.1
		}
		weightedIdx++
		return m
	}
	layers := seq.Layers
	for i := 0; i < len(layers); i++ {
		switch l := layers[i].(type) {
		case *nn.Conv2D:
			if cur.flat {
				return nil, cur, fmt.Errorf("conv %q after flatten", l.Name())
			}
			if cur.c != l.InC {
				return nil, cur, fmt.Errorf("conv %q expects %d input channels, got %d", l.Name(), l.InC, cur.c)
			}
			g := l.Geom(cur.h, cur.w)
			if err := g.Validate(); err != nil {
				return nil, cur, err
			}
			out := shape{c: l.OutC, h: g.OutH(), w: g.OutW()}
			st := step{
				kind: opConv, name: l.Name(), geom: g, outC: l.OutC,
				colRows: l.InC * l.KH * l.KW, colCols: g.OutH() * g.OutW(),
				w: l.W.Value.Data, bias: l.B.Value.Data,
				quantBits: clampActBits(l.ActBits),
				inShape:   cur, outShape: out,
			}
			if toInt8 {
				if err := st.lowerInt8(l.W.Value.Data, l.B.Value.Data, l.WeightBitsPerValue, false, nextActMax(), inScale); err != nil {
					return nil, cur, fmt.Errorf("conv %q: %w", l.Name(), err)
				}
				// ReLU is fused into requantization; drop an adjacent one.
				if i+1 < len(layers) {
					if _, ok := layers[i+1].(*nn.ReLU); ok {
						i++
					}
				}
			} else if st.quantBits == 0 && i+1 < len(layers) {
				// Fuse conv+bias+ReLU when no tensor-wide quantization
				// separates them.
				if _, ok := layers[i+1].(*nn.ReLU); ok {
					st.fuseReLU = true
					i++
				}
			}
			p.noteVols(out.vol(), st.colRows*st.colCols)
			ops = append(ops, st)
			cur = out

		case *nn.Dense:
			if !cur.flat {
				return nil, cur, fmt.Errorf("dense %q needs flattened input", l.Name())
			}
			if cur.features != l.In {
				return nil, cur, fmt.Errorf("dense %q expects %d features, got %d", l.Name(), l.In, cur.features)
			}
			out := shape{flat: true, features: l.Out}
			st := step{
				kind: opDense, name: l.Name(), in: l.In, out: l.Out,
				w: l.W.Value.Data, bias: l.B.Value.Data,
				quantBits: clampActBits(l.ActBits), final: l.Final,
				inShape: cur, outShape: out,
			}
			if l.Final {
				st.quantBits = 0 // classifier heads skip activation quantization
			}
			if toInt8 {
				if err := st.lowerInt8(l.W.Value.Data, l.B.Value.Data, l.WeightBitsPerValue, l.Final, nextActMax(), inScale); err != nil {
					return nil, cur, fmt.Errorf("dense %q: %w", l.Name(), err)
				}
				if i+1 < len(layers) {
					if _, ok := layers[i+1].(*nn.ReLU); ok && !l.Final {
						i++
					}
				}
			} else if st.quantBits == 0 && !l.Final && i+1 < len(layers) {
				if _, ok := layers[i+1].(*nn.ReLU); ok {
					st.fuseReLU = true
					i++
				}
			}
			p.noteVols(out.vol(), 0)
			ops = append(ops, st)
			cur = out

		case *nn.ReLU:
			// In the int8 pipeline ReLU is part of requantization, and a
			// standalone clamp on unsigned codes is the identity — so the
			// step is emitted only on the float backend.
			if !toInt8 {
				ops = append(ops, step{kind: opReLU, name: l.Name(), inShape: cur, outShape: cur})
			}

		case *nn.MaxPool2D:
			if cur.flat {
				return nil, cur, fmt.Errorf("pool %q after flatten", l.Name())
			}
			oh, ow := l.OutDims(cur.h, cur.w)
			if oh <= 0 || ow <= 0 {
				return nil, cur, fmt.Errorf("pool %q yields empty output for %dx%d", l.Name(), cur.h, cur.w)
			}
			out := shape{c: cur.c, h: oh, w: ow}
			ops = append(ops, step{kind: opPool, name: l.Name(), kernel: l.Kernel, stride: l.Stride, inShape: cur, outShape: out})
			p.noteVols(out.vol(), 0)
			cur = out

		case *nn.AvgPool2D:
			if toInt8 {
				return nil, cur, fmt.Errorf("avgpool %q has no int8 lowering", l.Name())
			}
			if cur.flat {
				return nil, cur, fmt.Errorf("avgpool %q after flatten", l.Name())
			}
			oh, ow := l.OutDims(cur.h, cur.w)
			if oh <= 0 || ow <= 0 {
				return nil, cur, fmt.Errorf("avgpool %q yields empty output for %dx%d", l.Name(), cur.h, cur.w)
			}
			out := shape{c: cur.c, h: oh, w: ow}
			ops = append(ops, step{kind: opAvgPool, name: l.Name(), kernel: l.Kernel, stride: l.Stride, inShape: cur, outShape: out})
			p.noteVols(out.vol(), 0)
			cur = out

		case *nn.Flatten:
			cur = shape{flat: true, features: cur.vol()}
			// Pure shape bookkeeping: no step emitted.

		default:
			return nil, cur, fmt.Errorf("unsupported layer %T", layers[i])
		}
	}
	return ops, cur, nil
}

// noteVols grows the arena sizing watermarks.
func (p *Plan) noteVols(actVol, colVol int) {
	if actVol > p.maxVol {
		p.maxVol = actVol
	}
	if colVol > p.maxColVol {
		p.maxColVol = colVol
	}
}

// clampActBits mirrors the layer forward passes' "in [1,31]" activation
// quantization gate.
func clampActBits(bits int) int {
	if bits > 0 && bits < 32 {
		return bits
	}
	return 0
}

// lowerInt8 quantizes one weighted layer for the int8 backend, repacks
// the quantized weights into the host kernel's panel layout, and binds the
// scales the fused kernels consume. actMax is the layer's
// requantization ceiling.
func (st *step) lowerInt8(w []float32, bias []float32, layerBits int, final bool, actMax float64, inScale *float64) error {
	bits := 8
	if layerBits > 0 && layerBits < 8 {
		bits = layerBits
	}
	wScale := compress.OptimalWeightScale(w, bits)
	if wScale == 0 {
		wScale = 1e-6
	}
	lb := -(int32(1) << uint(bits-1))
	ub := int32(1)<<uint(bits-1) - 1
	wq := make([]int8, len(w))
	for i, v := range w {
		q := int32(math.Round(float64(v) / wScale))
		if q < lb {
			q = lb
		}
		if q > ub {
			q = ub
		}
		wq[i] = int8(q)
	}
	accScale := wScale * *inScale
	st.biasAcc = make([]int32, len(bias))
	for i, b := range bias {
		st.biasAcc[i] = int32(math.Round(float64(b) / accScale))
	}
	rows, cols := st.out, st.in
	if st.kind == opConv {
		rows, cols = st.outC, st.colRows
	}
	if cols > tensor.MaxInt8FastK {
		return fmt.Errorf("reduction depth %d exceeds the int8-fast lane-safe bound %d", cols, tensor.MaxInt8FastK)
	}
	st.wpk = tensor.PackInt8Panels(wq, rows, cols)
	if final {
		st.deqScale = float32(accScale)
		return nil
	}
	outScale := actMax / 255
	mul, shift, err := requantFix31(float32(accScale / outScale))
	if err != nil {
		return err
	}
	st.mulFix, st.shiftFix = mul, shift
	*inScale = outScale
	return nil
}

// requantFix31 derives the fixed-point requantization pair
// mult = mul·2^-shift with a 31-bit multiplier, the form
// tensor.GemmInt8PackedReq fuses into its epilogue. A float32 mult has
// at most a 24-bit significand, so the pair is exact; a mult that is
// not positive and finite, or whose shift would fall outside [1, 62],
// is rejected.
func requantFix31(mult float32) (int32, uint, error) {
	frac, exp := math.Frexp(float64(mult))
	shift := 31 - exp
	if !(mult > 0) || math.IsInf(float64(mult), 1) || shift < 1 || shift > 62 {
		return 0, 0, fmt.Errorf("requant multiplier %g outside the 31-bit fixed-point range", mult)
	}
	return int32(frac * (1 << 31)), uint(shift), nil
}
