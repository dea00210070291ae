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
//     of (Grid.BaseSeed, point index, replicate seed), and from
//     Point.TraceSeed, the RunSeed of its replicate's lowest-index point
//     — never from shared RNG state or scheduling order.
//  2. A point constructs everything it mutates (schedule, device,
//     storage, runtime) locally. Two objects are shared across points,
//     both read-only during simulation: the per-policy deployment,
//     seeded by (BaseSeed, policy index) alone — the paper's "one
//     deployed model, many conditions" semantics — and the replicate's
//     trace. A replicate is one trace-axis value at one Seeds position;
//     all its points, whatever their device, policy, exit or storage,
//     run on one trace, as the paper compares its systems on one trace.
//     The first worker that needs it builds it, and the replicate's last
//     pending point releases it.
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
//	res, err := exper.NewEngine(0).Run(grid) // 0 ⇒ GOMAXPROCS workers
//	fmt.Print(res.AggTable())
//
// RunContext adds cooperative cancellation (checked between points and,
// via internal/core, between training episodes) with partial results
// preserved; Engine.Cache (a DeployCache) memoizes per-policy
// deployments across runs; GridSpec is the fully-declarative JSON twin
// of Grid used by the HTTP serving layer. The public entry point for all
// of this is the root package's Session.
//
// Underneath, the hot tensor kernels (tensor.MatMulInto and the conv
// im2col-GEMM path) are themselves row-band parallel with pooled scratch
// buffers, so a single large inference also spreads across cores.
package exper
