package multiexit_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/compress"
	"repro/internal/multiexit"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestSpecRoundTripLeNetEE verifies a compressed LeNet-EE survives
// multiexit.Describe → multiexit.FromSpec with its structure, names, and cost accounting
// intact — the invariant the deployment artifact depends on.
func TestSpecRoundTripLeNetEE(t *testing.T) {
	net := multiexit.LeNetEE(tensor.NewRNG(3))
	if err := compress.Apply(net, compress.Fig1bNonuniform()); err != nil {
		t.Fatal(err)
	}
	spec, err := multiexit.Describe(net)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := multiexit.FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}

	if rebuilt.NumExits() != net.NumExits() || rebuilt.Classes != net.Classes {
		t.Fatalf("rebuilt network has %d exits / %d classes, want %d / %d",
			rebuilt.NumExits(), rebuilt.Classes, net.NumExits(), net.Classes)
	}
	for i := 0; i < net.NumExits(); i++ {
		if got, want := rebuilt.ExitFLOPs(i), net.ExitFLOPs(i); got != want {
			t.Errorf("exit %d FLOPs %d, want %d", i, got, want)
		}
	}
	if got, want := rebuilt.WeightBytes(), net.WeightBytes(); got != want {
		t.Errorf("weight bytes %d, want %d", got, want)
	}

	// Parameter names and shapes must match pairwise so weights can be
	// restored positionally.
	orig, reb := net.Params(), rebuilt.Params()
	if len(orig) != len(reb) {
		t.Fatalf("rebuilt network has %d params, want %d", len(reb), len(orig))
	}
	for i := range orig {
		if orig[i].Name != reb[i].Name {
			t.Errorf("param %d name %q, want %q", i, reb[i].Name, orig[i].Name)
		}
		if !reflect.DeepEqual(orig[i].Value.Shape(), reb[i].Value.Shape()) {
			t.Errorf("param %q shape %v, want %v", orig[i].Name, reb[i].Value.Shape(), orig[i].Value.Shape())
		}
	}

	// Copying the weights over must reproduce inference bit-for-bit.
	for i := range orig {
		copy(reb[i].Value.Data, orig[i].Value.Data)
	}
	rng := tensor.NewRNG(9)
	img := tensor.New(3, 32, 32)
	for i := range img.Data {
		img.Data[i] = rng.Float32()
	}
	for exit := 0; exit < net.NumExits(); exit++ {
		a := net.InferTo(img, exit)
		b := rebuilt.InferTo(img, exit)
		if !reflect.DeepEqual(a.Logits.Data, b.Logits.Data) {
			t.Fatalf("exit %d logits diverge after round trip", exit)
		}
	}

	// The spec itself must survive JSON (the artifact manifest embeds it).
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var decoded multiexit.Spec
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&decoded, spec) {
		t.Fatal("spec changed across JSON round trip")
	}
}

// TestSpecRoundTripBuilder checks a builder-made architecture (conv
// branches, hidden heads) round-trips too.
func TestSpecRoundTripBuilder(t *testing.T) {
	b := multiexit.NewBuilder(3, 32, 32, 10)
	b.Conv("c1", 8, 5, 1, 0).ReLU().MaxPool(2, 2)
	b.ExitConv("early", 8, 0, true)
	b.Conv("c2", 16, 3, 1, 1).ReLU().MaxPool(2, 2)
	b.Exit("final", 32)
	net, err := b.Build(tensor.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := multiexit.Describe(net)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := multiexit.FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.NumExits() != net.NumExits() {
		t.Fatalf("exits %d, want %d", rebuilt.NumExits(), net.NumExits())
	}
	for i := 0; i < net.NumExits(); i++ {
		if rebuilt.ExitFLOPs(i) != net.ExitFLOPs(i) {
			t.Errorf("exit %d FLOPs diverge", i)
		}
	}
}

// identityLayer is a layer outside the deployable set.
type identityLayer struct{}

func (identityLayer) Name() string                                    { return "identity" }
func (identityLayer) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor { return x }
func (identityLayer) Backward(g *tensor.Tensor) *tensor.Tensor        { return g }
func (identityLayer) Params() []*nn.Param                             { return nil }
func (identityLayer) FLOPs() int64                                    { return 0 }
func (identityLayer) WeightBits() int64                               { return 0 }

// TestSpecRejects verifies multiexit.Describe refuses non-deployable layers and
// multiexit.FromSpec refuses malformed specs.
func TestSpecRejects(t *testing.T) {
	fc := nn.NewDense("fc", 4, 2)
	fc.Final = true
	net := &multiexit.Network{
		Segments: []*nn.Sequential{nn.NewSequential("s", identityLayer{})},
		Branches: []*nn.Sequential{nn.NewSequential("b", nn.NewFlatten("f"), fc)},
		Classes:  2,
	}
	if _, err := multiexit.Describe(net); err == nil {
		t.Fatal("multiexit.Describe must reject a layer it cannot describe")
	}

	bad := []multiexit.Spec{
		{Classes: 2, Segments: []multiexit.SequentialSpec{{Name: "s"}}}, // branch count mismatch
		{Classes: 2,
			Segments: []multiexit.SequentialSpec{{Name: "s", Layers: []multiexit.LayerSpec{{Kind: "warp", Name: "w"}}}},
			Branches: []multiexit.SequentialSpec{{Name: "b"}}},
		{Classes: 2,
			Segments: []multiexit.SequentialSpec{{Name: "s", Layers: []multiexit.LayerSpec{{Kind: multiexit.LayerConv, Name: "c"}}}},
			Branches: []multiexit.SequentialSpec{{Name: "b"}}}, // zero conv geometry
		{Classes: 2,
			Segments: []multiexit.SequentialSpec{{Name: "s", Layers: []multiexit.LayerSpec{{
				Kind: multiexit.LayerDense, Name: "d", In: 4, Out: 2, Kept: 9}}}},
			Branches: []multiexit.SequentialSpec{{Name: "b"}}}, // kept > in
	}
	for i, s := range bad {
		if _, err := multiexit.FromSpec(&s); err == nil {
			t.Errorf("spec %d: multiexit.FromSpec accepted a malformed spec", i)
		}
	}
}
