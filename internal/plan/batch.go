package plan

import (
	"fmt"
	"sync"

	"repro/internal/tensor"
)

// BatchExec runs a compiled float32 plan over a micro-batch of images —
// the serving counterpart of Exec, built for the online /v1/infer path
// where a dispatcher hands over several requests at once.
//
// The batch splits into contiguous per-worker bands (one lane per
// tensor worker, fixed at construction), and every lane owns a full
// private executor, so bands run concurrently with zero sharing.
// Within a band images run depth-first — one image's whole
// trunk-and-branches walk completes before the next starts — through
// exactly the single-image executor's fused steps and register-blocked
// kernels. Depth-first is a measured choice, not a simplification: a
// breadth-first (step-lock-step) schedule with band-wide GEMMs was
// built and benchmarked first, and lost — one image's activations fit
// the cache, a band's do not, so the widened working set evicted
// weights and activations between steps and per-image cost *rose* with
// batch size, while the batch-wide dense GEMM bought nothing because
// the serial kernels already ran at scalar peak (measured before the
// AVX2 kernels). The batch dimension
// pays off through the lanes: on a w-core host per-image wall time
// divides by min(batch, w); on a single core it matches the N=1 plan
// exactly.
//
// Per-image output is bit-identical to Exec.InferTo at every batch
// size and lane count: each image is processed by the identical serial
// code, and band boundaries only decide which goroutine runs it.
//
// A BatchExec is reusable for any number of batches but serves one
// batch at a time; the serving layer pools them. Integer plans batch
// exactly like float32 ones — each lane's executor runs the fused
// integer kernels, so a multi-core host divides quantized per-image
// wall time by the lane count.
type BatchExec struct {
	p     *Plan
	maxN  int
	lanes []blane
}

// blane is one band's private execution context: an executor, a
// scratch state for exit scans, and a reusable tensor header that wraps
// each raw input slice without allocating.
type blane struct {
	ex  *Exec
	st  *State
	img *tensor.Tensor
}

// NewBatchExec builds a batched executor able to run up to maxBatch
// images at once, with one lane per tensor worker available at
// construction time.
func (p *Plan) NewBatchExec(maxBatch int) *BatchExec {
	if maxBatch < 1 {
		maxBatch = 1
	}
	nl := tensor.Workers()
	if nl > maxBatch {
		nl = maxBatch
	}
	if nl < 1 {
		nl = 1
	}
	be := &BatchExec{p: p, maxN: maxBatch, lanes: make([]blane, nl)}
	for i := range be.lanes {
		be.lanes[i] = blane{
			ex:  p.NewExec(),
			st:  p.NewState(),
			img: tensor.FromSlice(make([]float32, p.geom.Vol()), p.geom.C, p.geom.H, p.geom.W),
		}
	}
	return be
}

// Plan returns the compiled program this executor runs.
func (be *BatchExec) Plan() *Plan { return be.p }

// MaxBatch returns the largest batch this executor can run.
func (be *BatchExec) MaxBatch() int { return be.maxN }

// Lanes returns how many worker bands the executor splits a batch
// across.
func (be *BatchExec) Lanes() int { return len(be.lanes) }

// InferBatchTo runs the images (each a CHW slice matching the plan's
// geometry) to the given exit, filling dst[i] exactly as
// Exec.InferTo(dst[i], imgs[i], exit) would — bit-identical logits and a
// resumable trunk checkpoint. len(dsts) must equal len(imgs) and be at
// most MaxBatch; every dst must come from this plan's NewState.
func (be *BatchExec) InferBatchTo(dsts []*State, imgs [][]float32, exit int) {
	if len(dsts) != len(imgs) {
		panic(fmt.Sprintf("plan: %d states for %d images", len(dsts), len(imgs)))
	}
	be.checkBatch(imgs, exit)
	be.forBands(len(imgs), func(ln *blane, lo, hi int) {
		for i := lo; i < hi; i++ {
			ln.img.Data = imgs[i]
			ln.ex.InferTo(dsts[i], ln.img, exit)
		}
	})
}

// ScanExits runs the images through every exit up to maxExit, invoking
// visit(exit, img, logits) after each branch: each image's
// InferTo-then-Resume chain, whose per-exit logits are bit-identical to
// a direct InferTo at that exit (the resume-chain identity the plan
// parity tests pin). The logits slice is lane scratch, valid only for
// the duration of the call — copy what you keep. When the executor has
// more than one lane, visit is called concurrently from different
// bands; calls for the same image always come from one band, in exit
// order.
func (be *BatchExec) ScanExits(imgs [][]float32, maxExit int, visit func(exit, img int, logits []float32)) {
	be.checkBatch(imgs, maxExit)
	be.forBands(len(imgs), func(ln *blane, lo, hi int) {
		for i := lo; i < hi; i++ {
			ln.img.Data = imgs[i]
			ln.ex.InferTo(ln.st, ln.img, 0)
			visit(0, i, ln.st.logits)
			for e := 1; e <= maxExit; e++ {
				ln.ex.Resume(ln.st, e)
				visit(e, i, ln.st.logits)
			}
		}
	})
}

// checkBatch validates batch size, exit range, and image volumes up
// front, so errors name the offending image instead of surfacing from
// arena depths.
func (be *BatchExec) checkBatch(imgs [][]float32, exit int) {
	p := be.p
	if exit < 0 || exit >= len(p.segments) {
		panic(fmt.Sprintf("plan: exit %d out of range [0,%d)", exit, len(p.segments)))
	}
	if len(imgs) > be.maxN {
		panic(fmt.Sprintf("plan: batch of %d exceeds executor capacity %d", len(imgs), be.maxN))
	}
	vol := p.geom.Vol()
	for i, img := range imgs {
		if len(img) != vol {
			panic(fmt.Sprintf("plan: image %d volume %d does not match compiled geometry %+v", i, len(img), p.geom))
		}
	}
}

// forBands splits [0, n) into contiguous bands differing by at most
// one image and runs f per band, concurrently when more than one lane
// engages. Band boundaries depend only on n and the lane count, and
// each band owns disjoint images, so results are bit-identical at any
// lane count.
func (be *BatchExec) forBands(n int, f func(ln *blane, lo, hi int)) {
	if n == 0 {
		return
	}
	nl := len(be.lanes)
	if nl > n {
		nl = n
	}
	if nl == 1 {
		f(&be.lanes[0], 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(nl)
	q, r := n/nl, n%nl
	lo := 0
	for w := 0; w < nl; w++ {
		hi := lo + q
		if w < r {
			hi++
		}
		go func(ln *blane, lo, hi int) {
			defer wg.Done()
			f(ln, lo, hi)
		}(&be.lanes[w], lo, hi)
		lo = hi
	}
	wg.Wait()
}
