// Command ehsim runs the full energy-harvesting intermittent-inference
// simulation: the compressed multi-exit network under the Q-learning
// runtime, compared against the three baselines on one EH trace. The
// scenario is expressed as a one-point grid and executed through a
// Session, so ehsim, sweep, and paperbench share one scenario
// constructor, one seed-derivation scheme, and one cancellation story
// (Ctrl-C aborts between training episodes).
//
// With -deployed the compressed model is restored from a saved
// deployment artifact (see cmd/train -save-deployed) instead of being
// rebuilt in process — the search/compress phase is skipped entirely,
// and the run is bit-identical to one on the never-serialized
// deployment.
//
// Usage:
//
//	ehsim [-seed N] [-events N] [-hours H] [-peak mW] [-trace file.csv]
//	      [-deployed model.ehar]
//	      [-policy static|qlearning] [-episodes N] [-workers N] [-v]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	ehinfer "repro"
	"repro/internal/core"
	"repro/internal/exper"
)

func main() {
	var (
		seed      = flag.Uint64("seed", 42, "random seed for trace, events, and learning")
		events    = flag.Int("events", 500, "number of events over the trace")
		hours     = flag.Float64("hours", 6, "trace duration in hours (synthetic trace)")
		peak      = flag.Float64("peak", 0.032, "peak harvesting power in mW (synthetic trace)")
		traceCSV  = flag.String("trace", "", "CSV file with a measured trace (overrides -hours/-peak)")
		deployedF = flag.String("deployed", "", "deployment artifact to run (skips the in-process build)")
		policy    = flag.String("policy", "qlearning", "runtime exit policy: qlearning or static")
		episodes  = flag.Int("episodes", 12, "Q-learning warm-up episodes before the measured run")
		workers   = flag.Int("workers", 0, "engine worker goroutines (0 = all cores)")
		verbose   = flag.Bool("v", false, "print per-system exit shares")
	)
	flag.Parse()
	if *events < 1 {
		fatal(fmt.Errorf("-events must be at least 1, got %d", *events))
	}

	mode := core.PolicyQLearning
	if *policy == "static" {
		mode = core.PolicyStaticLUT
	}
	grid := exper.PaperCompareGrid(*seed, *episodes, mode)
	grid.Events = *events
	if *traceCSV != "" {
		grid.Traces = []exper.TraceSpec{{Name: "csv", Kind: exper.TraceCSV, Path: *traceCSV}}
	} else {
		grid.Traces = []exper.TraceSpec{exper.SolarTrace(int(*hours*3600), *peak)}
	}

	session := ehinfer.NewSession(ehinfer.WithWorkers(*workers), ehinfer.WithSeed(*seed))
	if *deployedF != "" {
		ps, err := ehinfer.PolicyFromArtifactFile(*deployedF)
		if err != nil {
			fatal(err)
		}
		grid.Policies = []ehinfer.PolicySpec{ps}
		fmt.Printf("deployment artifact: %s (%s)\n", *deployedF, ps.Name)
	}

	// Materialize the point's trace and deployment up front for the
	// header; the engine re-derives the identical ones from TraceSeed and
	// DeploySeed.
	pt := grid.Points()[0]
	trace, err := pt.Trace.Build(pt.TraceSeed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("trace: %d s, mean %.1f µW, total %.1f mJ harvestable; %d events\n",
		trace.Duration(), 1000*trace.MeanPower(), trace.TotalEnergy(), grid.Events)

	var deployed *core.Deployed
	if pt.Policy.Deployed != nil {
		deployed = pt.Policy.Deployed()
	} else {
		deployed, err = core.BuildDeployed(pt.Policy.Build(), pt.DeploySeed)
		if err != nil {
			fatal(err)
		}
	}
	dev := pt.Device.Build()
	fmt.Printf("deployed: %0.1f KB weights, exit costs", float64(deployed.WeightBytes)/1024)
	for _, f := range deployed.ExitFLOPs {
		fmt.Printf(" %.2f mJ", dev.ComputeEnergyMJ(f))
	}
	fmt.Println()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := session.RunGrid(ctx, grid)
	if err != nil {
		fatal(err)
	}
	if errs := res.Errs(); len(errs) != 0 {
		fatal(fmt.Errorf("%s", errs[0]))
	}

	fmt.Printf("\n%-14s %8s %9s %11s %10s %9s\n", "system", "IEpmJ", "acc(all)", "acc(proc)", "latency", "processed")
	for _, r := range res.Results[0].Rows {
		fmt.Printf("%-14s %8.3f %8.1f%% %10.1f%% %9.1fs %8.1f%%\n",
			r.System, r.IEpmJ, 100*r.AccAll, 100*r.AccProcessed, r.MeanLatencyS, 100*r.ProcessedFrac)
		if *verbose && len(r.ExitShares) > 1 {
			fmt.Printf("               exit shares:")
			for i, s := range r.ExitShares {
				fmt.Printf(" exit%d=%.1f%%", i+1, 100*s)
			}
			fmt.Println()
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ehsim:", err)
	os.Exit(1)
}
