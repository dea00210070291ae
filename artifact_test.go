package ehinfer

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mcu"
	"repro/internal/tensor"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

const goldenArtifactPath = "testdata/golden_two_exit.ehar"

// goldenBundle is the canonical format-pinning artifact: a compact
// builder-made two-exit network (so the checked-in file stays small —
// the full LeNet-EE path is covered by TestSaveLoadRunParity),
// compressed with a uniform policy, int8 calibration pinned from fixed
// random images, int8fast default backend. Everything is a pure
// function of the constants below, so the encoded bytes are
// reproducible on any machine; every optional manifest field is
// populated.
func goldenBundle(t testing.TB) *DeploymentBundle {
	t.Helper()
	b := NewNetworkBuilder(1, 16, 16, 4)
	b.Conv("c1", 4, 3, 1, 1).ReLU().MaxPool(2, 2)
	b.Exit("e1", 0)
	b.Conv("c2", 8, 3, 1, 1).ReLU().MaxPool(2, 2)
	b.Exit("e2", 8)
	net, err := b.Build(NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	policy := UniformPolicy(net, 0.5, 6, 8)
	if err := ApplyPolicy(net, policy); err != nil {
		t.Fatal(err)
	}
	d, err := NewDeployed(net, []float64{0.61, 0.73})
	if err != nil {
		t.Fatal(err)
	}
	d.DefaultBackend = BackendInt8Fast
	rng := NewRNG(9)
	var imgs []*Tensor
	for i := 0; i < 4; i++ {
		img := make([]float32, 16*16)
		for j := range img {
			img[j] = rng.Float32()
		}
		imgs = append(imgs, tensor.FromSlice(img, 1, 16, 16))
	}
	d.BindInt8Calibration(imgs)
	return &DeploymentBundle{Name: "golden-two-exit", Deployed: d, Policy: policy}
}

// TestGoldenArtifact pins the wire format: the checked-in artifact must
// decode, match the canonical in-process build bit-for-bit, and
// re-encode byte-identically. Regenerate with `go test -run Golden .
// -update` after a deliberate format-version bump.
func TestGoldenArtifact(t *testing.T) {
	want := goldenBundle(t)
	var buf bytes.Buffer
	if err := EncodeDeployed(&buf, want); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenArtifactPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenArtifactPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenArtifactPath, buf.Len())
	}
	data, err := os.ReadFile(goldenArtifactPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(data, buf.Bytes()) {
		t.Fatalf("golden artifact drifted from the canonical build (%d vs %d bytes); "+
			"if the format changed deliberately, bump FormatVersion and run -update",
			len(data), buf.Len())
	}
	got, err := LoadDeployed(goldenArtifactPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != want.Name || got.Deployed.WeightBytes != want.Deployed.WeightBytes ||
		got.Deployed.DefaultBackend != BackendInt8Fast || got.Policy == nil {
		t.Fatal("golden artifact decoded with wrong contents")
	}
}

// parityScenario builds a small deterministic empirical scenario (events
// carry real samples, so the network actually executes) on a device
// roomy enough for the full-precision test network.
func parityScenario(t *testing.T) (*Scenario, *Deployed) {
	t.Helper()
	_, test := SynthCIFAR(SynthConfig{Seed: 41}, 10, 60)
	net := LeNetEE(NewRNG(41))
	d, err := NewDeployed(net, EvalExits(net, test))
	if err != nil {
		t.Fatal(err)
	}
	bigDev := mcu.MSP432()
	bigDev.Name = "MSP432-XL"
	bigDev.WeightStorageBytes = 1 << 20
	sc, err := NewScenario().
		Seed(41).
		Solar(0.5, 0.06).
		Events(40, 10).
		Device(bigDev).
		Capacitor(4).
		Empirical(test).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return sc, d
}

// TestSaveLoadRunParity is the round-trip guarantee of the artifact
// redesign: SaveDeployed → LoadDeployed → RunProposed produces a
// byte-identical report JSON to the never-serialized deployment, on
// both inference backends: the plan, and the integer backend named
// here by its "int8" alias.
func TestSaveLoadRunParity(t *testing.T) {
	if testing.Short() {
		t.Skip("empirical parity test skipped in -short")
	}
	sc, d := parityScenario(t)
	// Pin int8 calibration so the scales travel through the artifact
	// rather than being re-derived (either way must agree; pinning
	// exercises the persisted-scale path).
	var calib []*Tensor
	for i := 0; i < 6; i++ {
		calib = append(calib, sc.TestSet.Samples[i].Image)
	}
	d.BindInt8Calibration(calib)

	path := filepath.Join(t.TempDir(), "parity.ehar")
	if err := SaveDeployed(path, d, WithArtifactName("parity")); err != nil {
		t.Fatal(err)
	}
	session := NewSession()
	restored, err := session.Deploy(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"plan", "int8"} {
		backend, err := ParseBackend(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			cfg := CompareConfig{WarmupEpisodes: 2, Backend: backend}
			inProc, err := RunProposed(context.Background(), sc, d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			fromArtifact, err := RunProposed(context.Background(), sc, restored, cfg)
			if err != nil {
				t.Fatal(err)
			}
			a, err := json.Marshal(inProc)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(fromArtifact)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("backend %v: restored deployment's report diverges from the in-process one", backend)
			}
		})
	}
}

// TestInt8FastPinnedScalesRoundTrip: calibration scales pinned before
// SaveDeployed must travel through the .ehar into the restored
// deployment's packed-weight fast plan. With identical scales the
// integer pipeline is deterministic, so the restored plan's logits must
// match the in-process plan bit for bit — the fast backend's
// "compress once, flash once" contract.
func TestInt8FastPinnedScalesRoundTrip(t *testing.T) {
	sc, d := parityScenario(t)
	var calib []*Tensor
	for i := 0; i < 6; i++ {
		calib = append(calib, sc.TestSet.Samples[i].Image)
	}
	d.BindInt8Calibration(calib)

	path := filepath.Join(t.TempDir(), "fastpin.ehar")
	if err := SaveDeployed(path, d, WithArtifactName("fastpin")); err != nil {
		t.Fatal(err)
	}
	restored, err := NewSession().Deploy(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Int8Calibration == nil {
		t.Fatal("pinned calibration scales did not survive the artifact round-trip")
	}

	orig, err := d.Int8FastPlanPinned()
	if err != nil {
		t.Fatal(err)
	}
	rest, err := restored.Int8FastPlanPinned()
	if err != nil {
		t.Fatal(err)
	}
	if !orig.Int8() || !rest.Int8() {
		t.Fatal("pinned plans must be integer plans")
	}
	oex, ost := orig.NewExec(), orig.NewState()
	rex, rst := rest.NewExec(), rest.NewState()
	last := d.Net.NumExits() - 1
	for i := 0; i < 8; i++ {
		img := sc.TestSet.Samples[i+10].Image
		oex.InferTo(ost, img, last)
		rex.InferTo(rst, img, last)
		for j, v := range ost.Logits() {
			if rst.Logits()[j] != v {
				t.Fatalf("image %d logit[%d]: restored %v vs in-process %v — pinned scales drifted",
					i, j, rst.Logits()[j], v)
			}
		}
	}
}

// TestArtifactDefaultBackendApplies: a config that names no backend runs
// the artifact's own default; naming one overrides it.
func TestArtifactDefaultBackendApplies(t *testing.T) {
	if testing.Short() {
		t.Skip("empirical test skipped in -short")
	}
	sc, d := parityScenario(t)
	d.DefaultBackend = BackendInt8Fast
	path := filepath.Join(t.TempDir(), "def.ehar")
	if err := SaveDeployed(path, d); err != nil {
		t.Fatal(err)
	}
	restored, err := NewSession().Deploy(path)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(restored, RuntimeConfig{
		Storage: sc.Storage, Device: sc.Device, Seed: sc.Seed, TestSet: sc.TestSet,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Backend() != BackendInt8Fast {
		t.Fatalf("runtime backend %v, want the artifact default int8fast", rt.Backend())
	}
	rt, err = NewRuntime(restored, RuntimeConfig{
		Storage: sc.Storage, Device: sc.Device, Seed: sc.Seed, TestSet: sc.TestSet,
		Backend: BackendPlan,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Backend() != BackendPlan {
		t.Fatalf("explicit backend must win, got %v", rt.Backend())
	}
}

// TestRegisteredDeploymentGrid drives the loaded-artifact-as-grid-axis
// path through the Session: RunGrid on a PolicyFromDeployed axis.
func TestRegisteredDeploymentGrid(t *testing.T) {
	d, err := NewSession(WithSeed(3)).BuildDeployed(Fig1bNonuniform())
	if err != nil {
		t.Fatal(err)
	}
	grid := SeedReplicationGrid(1, 20)
	grid.Policies = []PolicySpec{PolicyFromDeployed("artifact:test", d)}
	res, err := NewSession().RunGrid(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if errs := res.Errs(); len(errs) != 0 {
		t.Fatalf("grid errors: %v", errs)
	}
}
