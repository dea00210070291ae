package ehinfer

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/tensor"
)

const goldenInt8FastPath = "testdata/golden_two_exit_int8fast.json"

// int8FastLogits is one input of the int8fast logits golden: the
// float32 bits of every logit, one slice per exit.
type int8FastLogits struct {
	Input string     `json:"input"`
	Exits [][]uint32 `json:"exits"`
}

// goldenInt8FastInputs returns the golden's 16 fixed inputs of the
// given volume: 14 seeded uniform images, then all-0 and all-1.
func goldenInt8FastInputs(vol int) (names []string, imgs [][]float32) {
	rng := NewRNG(17)
	for i := 0; i < 14; i++ {
		img := make([]float32, vol)
		for j := range img {
			img[j] = rng.Float32()
		}
		names = append(names, fmt.Sprintf("uniform-%d", i))
		imgs = append(imgs, img)
	}
	for _, c := range []float32{0, 1} {
		img := make([]float32, vol)
		for j := range img {
			img[j] = c
		}
		names = append(names, fmt.Sprintf("const-%g", c))
		imgs = append(imgs, img)
	}
	return names, imgs
}

// TestGoldenArtifactInt8FastLogits pins the integer contract bit for
// bit: the golden artifact's int8fast plan, compiled from its pinned
// calibration scales, must reproduce every logit at every exit on the
// fixed inputs. The pipeline is integer arithmetic up to one float32
// multiply per logit, so the bits are the same at any lane count.
// Confidences are not pinned: they go through nn.Entropy's float64
// sum, which a platform may fuse into multiply-adds.
//
// Regenerate only for an intended change to the integer lowering:
//
//	go test -run GoldenArtifactInt8FastLogits . -update
func TestGoldenArtifactInt8FastLogits(t *testing.T) {
	b, err := LoadDeployed(goldenArtifactPath)
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Deployed.Int8FastPlanPinned()
	if err != nil {
		t.Fatal(err)
	}
	g := p.Geometry()
	ex, st := p.NewExec(), p.NewState()
	names, imgs := goldenInt8FastInputs(g.Vol())
	got := make([]int8FastLogits, len(imgs))
	for i, img := range imgs {
		x := tensor.FromSlice(img, g.C, g.H, g.W)
		got[i].Input = names[i]
		for e := 0; e < p.NumExits(); e++ {
			ex.InferTo(st, x, e)
			bits := make([]uint32, len(st.Logits()))
			for j, v := range st.Logits() {
				bits[j] = math.Float32bits(v)
			}
			got[i].Exits = append(got[i].Exits, bits)
		}
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenInt8FastPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d inputs)", goldenInt8FastPath, len(got))
		return
	}
	data, err := os.ReadFile(goldenInt8FastPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want []int8FastLogits
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden holds %d inputs, the test runs %d", len(want), len(got))
	}
	for i := range got {
		if got[i].Input != want[i].Input || len(got[i].Exits) != len(want[i].Exits) {
			t.Fatalf("input %d: got %q with %d exits, golden %q with %d",
				i, got[i].Input, len(got[i].Exits), want[i].Input, len(want[i].Exits))
		}
		for e, bits := range got[i].Exits {
			if len(bits) != len(want[i].Exits[e]) {
				t.Fatalf("%s exit %d: %d logits, golden %d", got[i].Input, e, len(bits), len(want[i].Exits[e]))
			}
			for j, v := range bits {
				if w := want[i].Exits[e][j]; v != w {
					t.Errorf("%s exit %d logit %d: %v (%#08x), golden %v (%#08x)", got[i].Input, e, j,
						math.Float32frombits(v), v, math.Float32frombits(w), w)
				}
			}
		}
	}
}
