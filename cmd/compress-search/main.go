// Command compress-search runs the paper's §III power-trace-aware,
// exit-guided compression search (dual DDPG agents) and prints the
// Fig. 4-style per-layer policy table.
//
// Usage:
//
//	compress-search [-episodes N] [-ftarget MFLOPs] [-starget KB]
//	                [-algo ddpg|random|annealing] [-seed N]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	ehinfer "repro"
)

func main() {
	var (
		episodes = flag.Int("episodes", 150, "search episodes")
		ftarget  = flag.Float64("ftarget", 1.15, "FLOPs constraint in MFLOPs (paper: 1.15)")
		starget  = flag.Float64("starget", 16, "weight-size constraint in KB (paper: 16)")
		algo     = flag.String("algo", "ddpg", "search algorithm: ddpg, random, or annealing")
		seed     = flag.Uint64("seed", 42, "random seed")
	)
	flag.Parse()

	sc := ehinfer.DefaultScenario(*seed)
	net := ehinfer.LeNetEE(ehinfer.NewRNG(*seed))
	sur, err := ehinfer.NewSurrogate(net, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compress-search:", err)
		os.Exit(1)
	}
	cfg := ehinfer.SearchConfig{
		Episodes: *episodes,
		FTarget:  int64(*ftarget * 1e6),
		STarget:  int64(*starget * 1024),
		Trace:    sc.Trace,
		Schedule: sc.Schedule,
		Storage:  sc.Storage,
		Seed:     *seed,
	}

	session := ehinfer.NewSession()
	searchFn := session.SearchCompression
	switch *algo {
	case "ddpg":
	case "random":
		searchFn = session.SearchCompressionRandom
	case "annealing":
		searchFn = session.SearchCompressionAnnealing
	default:
		fmt.Fprintf(os.Stderr, "compress-search: unknown algorithm %q\n", *algo)
		os.Exit(2)
	}

	fmt.Printf("searching (%s, %d episodes, F ≤ %.2f MFLOPs, S ≤ %.0f KB)...\n",
		*algo, *episodes, *ftarget, *starget)
	start := time.Now()
	res, err := searchFn(context.Background(), net, sur, cfg)
	if err != nil && res.Policy == nil {
		fmt.Fprintln(os.Stderr, "compress-search:", err)
		os.Exit(1)
	}
	fmt.Printf("done in %.1fs (%d episodes)\n\n", time.Since(start).Seconds(), res.Episodes)

	fmt.Printf("best policy (Racc = %.4f, F = %.4f MFLOPs, S = %.1f KB):\n",
		res.Racc, float64(res.Measure.ModelFLOPs)/1e6, float64(res.Measure.WeightBytes)/1024)
	fmt.Println(res.Policy)

	fmt.Printf("per-exit accuracy:")
	for i, a := range res.ExitAccs {
		fmt.Printf(" exit%d=%.1f%%", i+1, 100*a)
	}
	fmt.Println()
	fmt.Printf("exit selection shares (static policy over the trace):")
	for i, s := range res.ExitShares {
		if i == len(res.ExitShares)-1 {
			fmt.Printf(" missed=%.1f%%", 100*s)
		} else {
			fmt.Printf(" exit%d=%.1f%%", i+1, 100*s)
		}
	}
	fmt.Println()
	fmt.Printf("per-exit FLOPs after compression:")
	for i, f := range res.Measure.ExitFLOPs {
		fmt.Printf(" exit%d=%.4fM", i+1, float64(f)/1e6)
	}
	fmt.Println()
}
