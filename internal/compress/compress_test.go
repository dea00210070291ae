package compress

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/multiexit"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestKeepCount(t *testing.T) {
	cases := []struct {
		c    int
		a    float64
		want int
	}{
		{10, 0.5, 5},
		{10, 0.05, 1}, // floor at 1
		{3, 0.9, 3},
		{3, 0.05, 1},
		{6, 0.35, 2},
		{6, 1.0, 6},
	}
	for _, c := range cases {
		if got := KeepCount(c.c, c.a); got != c.want {
			t.Errorf("KeepCount(%d, %.2f) = %d, want %d", c.c, c.a, got, c.want)
		}
	}
}

func TestChannelImportanceOrdering(t *testing.T) {
	// Two output filters, three input channels, 1x1 kernel; channel 1 is
	// strongest, channel 0 weakest.
	w := []float32{
		0.1, 5, 1, // filter 0 over channels 0,1,2
		-0.1, -5, 1, // filter 1
	}
	imp := ChannelImportance(w, 2, 3, 1)
	if !(imp[1] > imp[2] && imp[2] > imp[0]) {
		t.Fatalf("importance %v, want ch1 > ch2 > ch0", imp)
	}
	if math.Abs(imp[1]-10) > 1e-6 {
		t.Fatalf("|W| sum wrong: %v", imp)
	}
}

func TestPruneConvZeroesWeakChannels(t *testing.T) {
	l := nn.NewConv2D("c", 4, 2, 1, 1, 1, 0)
	// Channel strengths: 0 weak, 1 strong, 2 medium, 3 weakest.
	copy(l.W.Value.Data, []float32{
		0.2, 9, 1, 0.1,
		0.2, 9, 1, 0.1,
	})
	PruneConvChannels(l, 0.5)
	if l.KeptInC != 2 {
		t.Fatalf("KeptInC = %d", l.KeptInC)
	}
	for o := 0; o < 2; o++ {
		if l.W.Value.Data[o*4+0] != 0 || l.W.Value.Data[o*4+3] != 0 {
			t.Fatalf("weak channels not zeroed: %v", l.W.Value.Data)
		}
		if l.W.Value.Data[o*4+1] == 0 || l.W.Value.Data[o*4+2] == 0 {
			t.Fatalf("strong channels wrongly zeroed: %v", l.W.Value.Data)
		}
	}
}

func TestPruneDensePreservesStrongInputs(t *testing.T) {
	l := nn.NewDense("d", 4, 1)
	copy(l.W.Value.Data, []float32{0.1, 3, 0.2, 2})
	PruneDenseInputs(l, 0.5)
	if l.KeptIn != 2 {
		t.Fatalf("KeptIn = %d", l.KeptIn)
	}
	if l.W.Value.Data[1] == 0 || l.W.Value.Data[3] == 0 {
		t.Fatal("strong inputs pruned")
	}
	if l.W.Value.Data[0] != 0 || l.W.Value.Data[2] != 0 {
		t.Fatal("weak inputs kept")
	}
}

func TestPruneKeepCountProperty(t *testing.T) {
	// After pruning at ratio α, exactly KeepCount channels have nonzero
	// weights (given all-nonzero initial weights).
	f := func(seed uint64, aRaw float64) bool {
		a := MinPreserve + math.Mod(math.Abs(aRaw), MaxPreserve-MinPreserve)
		l := nn.NewConv2D("c", 8, 3, 3, 3, 1, 1)
		rng := tensor.NewRNG(seed | 1)
		tensor.FillUniform(l.W.Value, rng, 0.1, 1) // strictly positive
		PruneConvChannels(l, a)
		nonzero := 0
		for j := 0; j < 8; j++ {
			var s float64
			for o := 0; o < 3; o++ {
				for k := 0; k < 9; k++ {
					s += math.Abs(float64(l.W.Value.Data[(o*8+j)*9+k]))
				}
			}
			if s > 0 {
				nonzero++
			}
		}
		return nonzero == KeepCount(8, a) && nonzero == l.KeptInC
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeWeightsLevels(t *testing.T) {
	rng := tensor.NewRNG(2)
	w := make([]float32, 200)
	for i := range w {
		w[i] = float32(rng.NormFloat64())
	}
	QuantizeWeights(w, 3) // ≤ 2^3 = 8 distinct levels
	levels := map[float32]bool{}
	for _, v := range w {
		levels[v] = true
	}
	if len(levels) > 8 {
		t.Fatalf("3-bit quantization produced %d levels", len(levels))
	}
}

// TestQuantizeErrorDecreasesWithBits bounds the relative L2 error
// ‖w'−w‖/‖w‖ of quantizing at the scale OptimalWeightScale picks: it
// never grows with the bitwidth and is small at 8 bits.
func TestQuantizeErrorDecreasesWithBits(t *testing.T) {
	rng := tensor.NewRNG(3)
	w := make([]float32, 500)
	for i := range w {
		w[i] = float32(rng.NormFloat64())
	}
	relErr := func(bits int) float64 {
		q := append([]float32(nil), w...)
		QuantizeWeights(q, bits)
		var diff, norm float64
		for i, v := range w {
			d := float64(q[i]) - float64(v)
			diff += d * d
			norm += float64(v) * float64(v)
		}
		return math.Sqrt(diff / norm)
	}
	prev := 2.0
	for bits := 1; bits <= 8; bits++ {
		e := relErr(bits)
		if e > prev+1e-9 {
			t.Fatalf("quantization error increased at %d bits: %g > %g", bits, e, prev)
		}
		prev = e
	}
	if e := relErr(8); e > 0.02 {
		t.Fatalf("8-bit error too large: %g", e)
	}
}

func TestQuantizeAllZerosNoop(t *testing.T) {
	w := make([]float32, 10)
	QuantizeWeights(w, 4)
	for _, v := range w {
		if v != 0 {
			t.Fatal("zero weights must stay zero")
		}
	}
}

func TestQuantizeClampProperty(t *testing.T) {
	// Quantized values never exceed the original max magnitude by more
	// than one quantization step.
	f := func(vals []float32, bitsRaw uint8) bool {
		if len(vals) == 0 {
			return true
		}
		bits := int(bitsRaw%8) + 1
		w := make([]float32, len(vals))
		var maxAbs float64
		for i, v := range vals {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				v = 1
			}
			w[i] = v
			if a := math.Abs(float64(v)); a > maxAbs {
				maxAbs = a
			}
		}
		orig := append([]float32(nil), w...)
		QuantizeWeights(w, bits)
		for i := range w {
			if math.Abs(float64(w[i])) > maxAbs*1.51+1e-6 {
				t.Logf("bits=%d w=%v orig=%v", bits, w[i], orig[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyValidate(t *testing.T) {
	good := LayerPolicy{Layer: "x", PreserveRatio: 0.5, WeightBits: 4, ActBits: 8}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.PreserveRatio = 0
	if bad.Validate() == nil {
		t.Fatal("zero preserve accepted")
	}
	bad = good
	bad.WeightBits = 9
	if bad.Validate() == nil {
		t.Fatal("9-bit accepted")
	}
	bad = good
	bad.ActBits = 0
	if bad.Validate() == nil {
		t.Fatal("0-bit accepted")
	}
	dup := &Policy{Layers: []LayerPolicy{good, good}}
	if dup.Validate() == nil {
		t.Fatal("duplicate layer accepted")
	}
	if (&Policy{}).Validate() == nil {
		t.Fatal("empty policy accepted")
	}
}

func TestSnapPreserve(t *testing.T) {
	if got := SnapPreserve(0.52); math.Abs(got-0.50) > 1e-9 {
		t.Fatalf("SnapPreserve(0.52) = %v", got)
	}
	if got := SnapPreserve(0.0); got != MinPreserve {
		t.Fatalf("SnapPreserve(0) = %v", got)
	}
	if got := SnapPreserve(2.0); got != MaxPreserve {
		t.Fatalf("SnapPreserve(2) = %v", got)
	}
}

func TestQuantizeRatioMapping(t *testing.T) {
	if QuantizeRatio(0, 1, 8) != 1 {
		t.Fatal("action 0 must map to min bits")
	}
	if QuantizeRatio(1, 1, 8) != 8 {
		t.Fatal("action 1 must map to max bits")
	}
	if QuantizeRatio(-5, 1, 8) != 1 || QuantizeRatio(5, 1, 8) != 8 {
		t.Fatal("out-of-range actions must clamp")
	}
}

func TestApplyAndSnapshotRestore(t *testing.T) {
	net := multiexit.LeNetEE(tensor.NewRNG(5))
	snap := NewSnapshot(net)
	origFLOPs := net.ModelFLOPs()
	origBytes := net.WeightBytes()
	origW := net.Params()[0].Value.Clone()

	if err := Apply(net, Fig1bNonuniform()); err != nil {
		t.Fatal(err)
	}
	if net.ModelFLOPs() >= origFLOPs {
		t.Fatal("compression did not reduce FLOPs")
	}
	if net.WeightBytes() >= origBytes {
		t.Fatal("compression did not reduce weight size")
	}

	snap.Restore()
	if net.ModelFLOPs() != origFLOPs || net.WeightBytes() != origBytes {
		t.Fatal("Restore did not reset accounting")
	}
	if net.Params()[0].Value.L2Distance(origW) != 0 {
		t.Fatal("Restore did not reset weights")
	}
}

func TestApplyUnknownLayerFails(t *testing.T) {
	net := multiexit.LeNetEE(tensor.NewRNG(6))
	p := &Policy{Layers: []LayerPolicy{{Layer: "ghost", PreserveRatio: 0.5, WeightBits: 8, ActBits: 8}}}
	if err := Apply(net, p); err == nil {
		t.Fatal("unknown layer accepted")
	}
}

func TestReferencePoliciesMeetPaperConstraints(t *testing.T) {
	net := multiexit.LeNetEE(tensor.NewRNG(7))
	if err := Apply(net, Fig1bNonuniform()); err != nil {
		t.Fatal(err)
	}
	m := MeasureNetwork(net)
	if m.ModelFLOPs > PaperFTargetFLOPs {
		t.Errorf("nonuniform reference F_model = %d > %d", m.ModelFLOPs, PaperFTargetFLOPs)
	}
	if m.WeightBytes > PaperSTargetBytes {
		t.Errorf("nonuniform reference S_model = %d > %d", m.WeightBytes, PaperSTargetBytes)
	}
}

func TestFig6ExitRatiosShape(t *testing.T) {
	// The nonuniform reference must reproduce the paper's Fig. 6 shape:
	// exit-1 compressed hardest (≈0.31×), exit-3 least (≈0.67×).
	net := multiexit.LeNetEE(tensor.NewRNG(8))
	before := []float64{}
	for i := 0; i < 3; i++ {
		before = append(before, float64(net.ExitFLOPs(i)))
	}
	if err := Apply(net, Fig1bNonuniform()); err != nil {
		t.Fatal(err)
	}
	ratios := []float64{}
	for i := 0; i < 3; i++ {
		ratios = append(ratios, float64(net.ExitFLOPs(i))/before[i])
	}
	if !(ratios[0] < ratios[1] && ratios[1] < ratios[2]) {
		t.Fatalf("exit ratios %v must increase with depth (paper: 0.31, 0.44, 0.67)", ratios)
	}
	paper := []float64{0.31, 0.44, 0.67}
	for i := range ratios {
		if math.Abs(ratios[i]-paper[i]) > 0.08 {
			t.Errorf("exit %d ratio %.3f, paper %.2f (tolerance 0.08)", i+1, ratios[i], paper[i])
		}
	}
}

func TestUniformPolicyCoversAllLayers(t *testing.T) {
	net := multiexit.LeNetEE(nil)
	p := Uniform(net, 0.5, 4, 4)
	if len(p.Layers) != len(multiexit.LeNetEELayerNames) {
		t.Fatalf("uniform policy has %d layers", len(p.Layers))
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyStringRendersTable(t *testing.T) {
	p := Fig1bNonuniform()
	s := p.String()
	if !strings.Contains(s, "Conv1") || !strings.Contains(s, "FC-B32") {
		t.Fatalf("policy table missing layers:\n%s", s)
	}
}

func TestCompressedNetworkStillInfers(t *testing.T) {
	net := multiexit.LeNetEE(tensor.NewRNG(9))
	if err := Apply(net, Fig1bNonuniform()); err != nil {
		t.Fatal(err)
	}
	img := tensor.New(3, 32, 32)
	tensor.FillUniform(img, tensor.NewRNG(10), 0, 1)
	st := net.InferTo(img, 2)
	if st.Logits.Len() != 10 {
		t.Fatal("compressed inference broken")
	}
	for _, v := range st.Logits.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("compressed inference produced NaN/Inf")
		}
	}
}
