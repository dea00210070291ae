package plan

import (
	"fmt"
	"testing"

	"repro/internal/compress"
	"repro/internal/multiexit"
	"repro/internal/tensor"
)

// rawImages flattens a test batch into the []float32 form the batched
// executor (and the serving layer) consumes.
func rawImages(n int, seed uint64) [][]float32 {
	imgs := testImages(n, seed)
	out := make([][]float32, n)
	for i, img := range imgs {
		out[i] = img.Data
	}
	return out
}

// TestBatchParity is the batched tentpole's gate: InferBatchTo output
// must be bit-identical per image to the N=1 plan across batch sizes,
// lane counts (single-lane and banded across 4 workers), exits, and
// compression policies, and the filled states must resume through a
// regular Exec exactly like single-image states.
func TestBatchParity(t *testing.T) {
	for _, lanes := range []int{1, 4} {
		for name := range policies(multiexit.LeNetEE(nil)) {
			t.Run(fmt.Sprintf("lanes=%d/%s", lanes, name), func(t *testing.T) {
				prev := tensor.SetWorkers(lanes)
				defer tensor.SetWorkers(prev)
				testBatchParity(t, name, lanes)
			})
		}
	}
}

func testBatchParity(t *testing.T, name string, lanes int) {
	net := multiexit.LeNetEE(tensor.NewRNG(1))
	if err := compress.Apply(net, policies(net)[name]); err != nil {
		t.Fatal(err)
	}
	geom, err := InferGeometry(net)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(net, geom)
	if err != nil {
		t.Fatal(err)
	}
	ex, ref := p.NewExec(), p.NewState()

	for _, n := range []int{1, 3, 4, 5, 16} {
		be := p.NewBatchExec(n)
		if want := min(lanes, n); be.Lanes() != want {
			t.Fatalf("n=%d: %d lanes, want %d", n, be.Lanes(), want)
		}
		imgs := rawImages(n, 7)
		tensors := testImages(n, 7)
		dsts := make([]*State, n)
		for i := range dsts {
			dsts[i] = p.NewState()
		}
		for exit := 0; exit < net.NumExits(); exit++ {
			be.InferBatchTo(dsts, imgs, exit)
			for i := 0; i < n; i++ {
				ex.InferTo(ref, tensors[i], exit)
				assertStatesEqual(t, dsts[i], ref, fmt.Sprintf("n=%d exit=%d img=%d", n, exit, i))
			}
		}
		// Batched states must be resumable by a plain Exec: run the
		// batch to exit 0, resume each state to the last exit, and
		// compare against a pure single-image chain.
		last := net.NumExits() - 1
		if last > 0 {
			be.InferBatchTo(dsts, imgs, 0)
			for i := 0; i < n; i++ {
				ex.Resume(dsts[i], last)
				want := p.NewState()
				ex.InferTo(want, tensors[i], 0)
				ex.Resume(want, last)
				assertStatesEqual(t, dsts[i], want, fmt.Sprintf("n=%d resume img=%d", n, i))
			}
		}
	}
}

// assertStatesEqual compares two plan states bit for bit.
func assertStatesEqual(t *testing.T, got, want *State, ctx string) {
	t.Helper()
	for i, v := range got.Logits() {
		if v != want.Logits()[i] {
			t.Fatalf("%s: logit[%d] = %x, want %x (batched output must be bit-identical)",
				ctx, i, v, want.Logits()[i])
		}
	}
	if got.Predicted() != want.Predicted() {
		t.Fatalf("%s: predicted %d vs %d", ctx, got.Predicted(), want.Predicted())
	}
	if gc, wc := got.Confidence(), want.Confidence(); gc != wc {
		t.Fatalf("%s: confidence %v vs %v", ctx, gc, wc)
	}
	if got.Exit != want.Exit {
		t.Fatalf("%s: exit %d vs %d", ctx, got.Exit, want.Exit)
	}
}

// TestScanExits checks the serving walk: every image is visited once
// per exit, in exit order, and the logits surfaced at each exit are
// bit-identical to direct single-image inference to that exit — run
// single-lane and banded across 4 workers, so the multi-lane walk is
// exercised (and race-checked) on any core count. visit runs
// concurrently across lanes and its logits are lane scratch, so the
// callback only copies them into the image's own slot: an image belongs
// to one band, so each slot has a single writer. The reference
// inference and every comparison run on the test goroutine after
// ScanExits returns.
func TestScanExits(t *testing.T) {
	for _, lanes := range []int{1, 4} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			prev := tensor.SetWorkers(lanes)
			defer tensor.SetWorkers(prev)
			testScanExits(t, lanes)
		})
	}
}

func testScanExits(t *testing.T, lanes int) {
	net := multiexit.LeNetEE(tensor.NewRNG(3))
	geom, _ := InferGeometry(net)
	p, err := Compile(net, geom)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	be := p.NewBatchExec(n)
	if want := min(lanes, n); be.Lanes() != want {
		t.Fatalf("%d lanes, want %d", be.Lanes(), want)
	}
	imgs := rawImages(n, 9)
	tensors := testImages(n, 9)
	exits := net.NumExits()

	// One visit: the exit it reported and a copy of its logits.
	type exitLogits struct {
		exit   int
		logits []float32
	}
	got := make([][]exitLogits, n)
	be.ScanExits(imgs, exits-1, func(exit, img int, logits []float32) {
		got[img] = append(got[img], exitLogits{exit, append([]float32(nil), logits...)})
	})

	ex, ref := p.NewExec(), p.NewState()
	for img, visits := range got {
		if len(visits) != exits {
			t.Fatalf("img %d: %d visits, want one per exit (%d)", img, len(visits), exits)
		}
		for e, v := range visits {
			if v.exit != e {
				t.Fatalf("img %d: visit %d reported exit %d, want exit order", img, e, v.exit)
			}
			ex.InferTo(ref, tensors[img], e)
			want := ref.Logits()
			if len(v.logits) != len(want) {
				t.Fatalf("exit %d img %d: %d logits, want %d", e, img, len(v.logits), len(want))
			}
			for i, x := range v.logits {
				if x != want[i] {
					t.Fatalf("exit %d img %d: logit[%d] = %x, want %x", e, img, i, x, want[i])
				}
			}
		}
	}
}

// TestBatchExecAllocs gates the serving hot path: a warmed single-lane
// batch executor must not allocate (multi-lane execution pays only the
// banding goroutines).
func TestBatchExecAllocs(t *testing.T) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)
	net := multiexit.LeNetEE(tensor.NewRNG(4))
	geom, _ := InferGeometry(net)
	p, err := Compile(net, geom)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	be := p.NewBatchExec(n)
	imgs := rawImages(n, 5)
	dsts := make([]*State, n)
	for i := range dsts {
		dsts[i] = p.NewState()
	}
	visit := func(_, _ int, _ []float32) {}
	for name, fn := range map[string]func(){
		"InferBatchTo": func() { be.InferBatchTo(dsts, imgs, 2) },
		"ScanExits":    func() { be.ScanExits(imgs, 2, visit) },
	} {
		if allocs := testing.AllocsPerRun(10, fn); allocs > 2 {
			t.Errorf("%s: %v allocs/op, want <= 2", name, allocs)
		}
	}
}

// TestBatchExecRejects covers the argument contract.
func TestBatchExecRejects(t *testing.T) {
	net := multiexit.LeNetEE(tensor.NewRNG(6))
	geom, _ := InferGeometry(net)
	fp, err := Compile(net, geom)
	if err != nil {
		t.Fatal(err)
	}
	be := fp.NewBatchExec(2)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	okImg := rawImages(1, 1)[0]
	mustPanic("oversized batch", func() {
		be.InferBatchTo([]*State{fp.NewState(), fp.NewState(), fp.NewState()},
			[][]float32{okImg, okImg, okImg}, 0)
	})
	mustPanic("bad image volume", func() {
		be.InferBatchTo([]*State{fp.NewState()}, [][]float32{make([]float32, 7)}, 0)
	})
	mustPanic("exit out of range", func() {
		be.InferBatchTo([]*State{fp.NewState()}, [][]float32{okImg}, 99)
	})
	mustPanic("state/image count mismatch", func() {
		be.InferBatchTo([]*State{fp.NewState()}, [][]float32{okImg, okImg}, 0)
	})
}
