// Package exper is the parallel experiment engine: it executes a
// declarative grid of intermittent-inference scenarios — energy trace ×
// MCU device × compression policy × exit policy × seed — on a goroutine
// worker pool and aggregates the outcomes into metrics tables and JSON.
//
// # Determinism contract
//
// Engine output is bit-identical at any worker count. Three rules make
// that hold, and extensions must preserve them:
//
//  1. Every point's randomness flows from Point.RunSeed, a pure function
//     of (Grid.BaseSeed, point index, replicate seed), which seeds the
//     proposed runtime's RNG, and from Point.ReplicateSeed, the RunSeed
//     of its replicate's lowest-index point, which seeds what the
//     replicate shares — never from shared RNG state or scheduling
//     order.
//  2. A point constructs everything it mutates (device, storage,
//     runtime) locally. What it shares is read-only during simulation:
//     the per-policy deployment, seeded by (BaseSeed, policy index)
//     alone — the paper's "one deployed model, many conditions"
//     semantics — and what its replicate shares. A replicate is one
//     trace-axis value at one Seeds position; all its points, whatever
//     their device, policy, exit or storage, run on one trace and one
//     event schedule, as the paper's §V runs its systems on one trace
//     and one schedule. The baselines read nothing of a point's policy
//     or exit, so they run once per (replicate, device, storage) triple
//     and every point of the triple carries the same rows. The first
//     worker that needs them builds them, and the replicate's last
//     pending point releases them.
//  3. Workers write results into the point's own slot of a pre-sized
//     slice, so collection order equals enumeration order regardless of
//     completion order.
//
// The determinism test in exper_test.go pins the contract by comparing
// the serialized output of workers=1 and workers=8 runs byte for byte.
//
// # Usage
//
//	grid := exper.PaperSweepGrid([]float64{0.02, 0.032}, []float64{3, 6}, 3, 500)
//	res, err := exper.NewEngine(0).RunContext(ctx, grid) // 0 ⇒ GOMAXPROCS workers
//	fmt.Print(res.AggTable())
//
// RunContext cancels cooperatively (checked between points and, via
// internal/core, between training episodes) with partial results
// preserved; Engine.Cache (a DeployCache) memoizes per-policy
// deployments across runs; GridSpec is the fully-declarative JSON twin
// of Grid used by the HTTP serving layer. The public entry point for all
// of this is the root package's Session.
//
// Underneath, the hot tensor kernels (tensor.MatMulInto and the conv
// im2col-GEMM path) are themselves row-band parallel with pooled scratch
// buffers, so a single large inference also spreads across cores.
package exper
