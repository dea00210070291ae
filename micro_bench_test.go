package ehinfer

// Micro-benchmarks for the hot kernels: inference (the compiled float
// and int8 plans, and the layer walk they are checked against), training
// step, compression, Q-table updates, and the simulation engine. These
// measure the library itself (testing.B timing is meaningful here,
// unlike the figure benches which are one-shot experiment drivers).
// Every benchmark reports allocations; BENCH_pr5.json archives the
// results per PR.

import (
	"testing"

	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/intermittent"
	"repro/internal/mcu"
	"repro/internal/multiexit"
	"repro/internal/nn"
	"repro/internal/plan"
	"repro/internal/qlearn"
	"repro/internal/tensor"
)

// benchImage returns the deterministic input image the inference benches
// share.
func benchImage() *tensor.Tensor {
	img := tensor.New(3, 32, 32)
	tensor.FillUniform(img, tensor.NewRNG(2), 0, 1)
	return img
}

// benchPlan compiles the deployed network's inference plan.
func benchPlan(b *testing.B, net *multiexit.Network) (*plan.Exec, *plan.State) {
	b.Helper()
	geom, err := plan.InferGeometry(net)
	if err != nil {
		b.Fatal(err)
	}
	p, err := plan.Compile(net, geom)
	if err != nil {
		b.Fatal(err)
	}
	return p.NewExec(), p.NewState()
}

// BenchmarkInferToExit1/Exit3 measure the production inference path: the
// compiled zero-allocation plan the episode loop runs.
func BenchmarkInferToExit1(b *testing.B) {
	benchInferTo(b, 0)
}

func BenchmarkInferToExit3(b *testing.B) {
	benchInferTo(b, 2)
}

func benchInferTo(b *testing.B, exit int) {
	net := multiexit.LeNetEE(tensor.NewRNG(1))
	ex, st := benchPlan(b, net)
	img := benchImage()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.InferTo(st, img, exit)
	}
}

// BenchmarkLegacyInferToExit3 keeps the original layer-walk path
// measurable so the plan speedup stays visible across PRs.
func BenchmarkLegacyInferToExit3(b *testing.B) {
	net := multiexit.LeNetEE(tensor.NewRNG(1))
	img := benchImage()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.InferTo(img, 2)
	}
}

// BenchmarkInferToExit3Int8Fast measures the packed-weight integer
// pipeline (plan.CompileInt8Fast) — the backend whose acceptance gate is
// running at or below the fp32 plan on the same box.
func BenchmarkInferToExit3Int8Fast(b *testing.B) {
	net := multiexit.LeNetEE(tensor.NewRNG(1))
	img := benchImage()
	geom, err := plan.InferGeometry(net)
	if err != nil {
		b.Fatal(err)
	}
	p, err := plan.CompileInt8Fast(net, geom, plan.Int8Config{Calibration: []*tensor.Tensor{img}})
	if err != nil {
		b.Fatal(err)
	}
	ex, st := p.NewExec(), p.NewState()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.InferTo(st, img, 2)
	}
}

func BenchmarkIncrementalResume(b *testing.B) {
	net := multiexit.LeNetEE(tensor.NewRNG(1))
	ex, st := benchPlan(b, net)
	img := benchImage()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.InferTo(st, img, 0)
		ex.Resume(st, 2)
	}
}

func BenchmarkLegacyIncrementalResume(b *testing.B) {
	net := multiexit.LeNetEE(tensor.NewRNG(1))
	img := benchImage()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := net.InferTo(img, 0)
		net.Resume(st, 2)
	}
}

// BenchmarkPlanCompile measures deployment-time plan compilation (paid
// once per deployment, cached on the Deployed).
func BenchmarkPlanCompile(b *testing.B) {
	net := multiexit.LeNetEE(tensor.NewRNG(1))
	geom, err := plan.InferGeometry(net)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Compile(net, geom); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanCompileInt8Fast measures int8-fast compilation — the
// price of hoisting quantization, weight packing, and fixed-point scale
// binding out of the hot loop, paid once per deployment and cached. The
// calibration forward passes are the dominant term.
func BenchmarkPlanCompileInt8Fast(b *testing.B) {
	net := multiexit.LeNetEE(tensor.NewRNG(1))
	img := benchImage()
	geom, err := plan.InferGeometry(net)
	if err != nil {
		b.Fatal(err)
	}
	scales := plan.Calibrate(net, []*tensor.Tensor{img})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.CompileInt8Fast(net, geom, plan.Int8Config{Scales: scales}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainStep(b *testing.B) {
	// Batch 8 keeps one step under ~50 ms so default -benchtime runs
	// several iterations (batch 32 gave a single noisy 158 ms sample);
	// all setup stays outside the timed region.
	const batch = 8
	set := dataset.NewGenerator(dataset.SynthConfig{Seed: 3}).Generate(batch)
	net := multiexit.LeNetEE(tensor.NewRNG(4))
	opt := nn.NewSGD(net.Params(), 0.01, 0.9, 0)
	x, labels := set.Batch(0, batch)
	grads := make([]*tensor.Tensor, net.NumExits())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.ZeroGrad()
		logits := net.ForwardAll(x, true)
		for j, lg := range logits {
			_, grads[j] = nn.CrossEntropyLoss(lg, labels)
		}
		net.BackwardAll(grads)
		opt.Step()
	}
}

func BenchmarkApplyCompressionPolicy(b *testing.B) {
	net := multiexit.LeNetEE(tensor.NewRNG(5))
	snap := compress.NewSnapshot(net)
	policy := compress.Fig1bNonuniform()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := compress.Apply(net, policy); err != nil {
			b.Fatal(err)
		}
		snap.Restore()
	}
}

func BenchmarkQuantizeWeights8bit(b *testing.B) {
	rng := tensor.NewRNG(6)
	w := make([]float32, 72000) // FC-B21 size
	for i := range w {
		w[i] = float32(rng.NormFloat64())
	}
	buf := make([]float32, len(w))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, w)
		compress.QuantizeWeights(buf, 8)
	}
}

func BenchmarkQTableUpdate(b *testing.B) {
	tab := qlearn.NewTable(60, 3, 0.2, 0.9, 0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Update(i%60, i%3, 0.7, (i+1)%60)
	}
}

func BenchmarkSolarTraceGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		energy.SyntheticSolarTrace(energy.SolarConfig{Seconds: 21600, Seed: uint64(i)})
	}
}

func BenchmarkSynthCIFARSample(b *testing.B) {
	g := dataset.NewGenerator(dataset.SynthConfig{Seed: 7})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Sample(i % 10)
	}
}

func BenchmarkEngineRunToCompletion(b *testing.B) {
	trace := energy.ConstantTrace(100000, 0.5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		store := energy.DefaultStorage()
		eng, err := intermittent.New(mcu.MSP432(), store, trace)
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := eng.RunToCompletion(2_000_000); !ok {
			b.Fatal("task failed")
		}
	}
}

func BenchmarkFullSimulationEpisode(b *testing.B) {
	sc := DefaultScenario(42)
	d, err := BuildDeployed(Fig1bNonuniform(), 42)
	if err != nil {
		b.Fatal(err)
	}
	rt, err := NewRuntime(d, RuntimeConfig{Mode: PolicyQLearning, Device: sc.Device, Storage: sc.Storage, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Run(sc.Trace, sc.Schedule); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInferBatched* measure the batched serving executor
// (plan.BatchExec) at the micro-batch sizes the online queue
// dispatches. ns/op is per batch; the ns/img metric is the per-image
// cost. Every size draws distinct images from one rotating pool —
// serving traffic never re-infers a cache-hot image, so a fair
// comparison must not either. On a single core (this CI box) per-image
// cost is flat with batch size — the serial kernels already run at
// scalar peak, and the dispatch overhead the batch amortizes is small —
// while on a w-core host the executor's per-worker lanes divide
// per-image wall time by min(batch, w).
func BenchmarkInferBatched1(b *testing.B)  { benchInferBatched(b, 1, false) }
func BenchmarkInferBatched4(b *testing.B)  { benchInferBatched(b, 4, false) }
func BenchmarkInferBatched16(b *testing.B) { benchInferBatched(b, 16, false) }

// BenchmarkInferBatched*Int8Fast run the same micro-batch shapes through
// the int8-fast lanes BatchExec gained alongside the packed kernels.
func BenchmarkInferBatched1Int8Fast(b *testing.B)  { benchInferBatched(b, 1, true) }
func BenchmarkInferBatched4Int8Fast(b *testing.B)  { benchInferBatched(b, 4, true) }
func BenchmarkInferBatched16Int8Fast(b *testing.B) { benchInferBatched(b, 16, true) }

func benchInferBatched(b *testing.B, n int, int8fast bool) {
	net := multiexit.LeNetEE(tensor.NewRNG(1))
	geom, err := plan.InferGeometry(net)
	if err != nil {
		b.Fatal(err)
	}
	var p *plan.Plan
	if int8fast {
		p, err = plan.CompileInt8Fast(net, geom, plan.Int8Config{Calibration: []*tensor.Tensor{benchImage()}})
	} else {
		p, err = plan.Compile(net, geom)
	}
	if err != nil {
		b.Fatal(err)
	}
	be := p.NewBatchExec(n)
	// A pool of 16 distinct images; each dispatch takes the next n,
	// wrapping, so every batch size sees the same image diversity.
	const pool = 16
	rng := tensor.NewRNG(2)
	imgs := make([][]float32, pool+n-1)
	for i := 0; i < pool; i++ {
		img := tensor.New(3, 32, 32)
		tensor.FillUniform(img, rng, 0, 1)
		imgs[i] = img.Data
	}
	for i := pool; i < len(imgs); i++ {
		imgs[i] = imgs[i-pool]
	}
	dsts := make([]*plan.State, n)
	for i := range dsts {
		dsts[i] = p.NewState()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (i * n) % pool
		be.InferBatchTo(dsts, imgs[off:off+n], 2)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/img")
}
