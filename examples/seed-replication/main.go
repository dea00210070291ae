// Seed replication: how seed-sensitive are the paper's headline numbers?
// The grid replicates the §V scenario over 16 seeds — every replicate
// gets an independent trace, schedule, and learning stream derived from
// its grid index, while the deployed model itself is fixed (the paper's
// semantics: one compressed network, many conditions) — and reports
// mean ± std plus the spread of IEpmJ and accuracy for the proposed
// system and all three baselines.
//
// It also demonstrates the engine's determinism contract directly: the
// same grid is run twice at different worker counts and the serialized
// results are compared byte for byte.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	ehinfer "repro"
)

func main() {
	grid := ehinfer.SeedReplicationGrid(16, 300)
	fmt.Printf("seed replication: %d replicates × 4 systems\n\n", grid.Size())

	ctx := context.Background()
	res, err := ehinfer.NewSession().RunGrid(ctx, grid)
	if err != nil {
		log.Fatal(err)
	}
	if errs := res.Errs(); len(errs) != 0 {
		log.Fatal(errs)
	}

	for _, r := range res.Aggregate() {
		fmt.Printf("%-14s IEpmJ %.3f ± %.3f [%.3f, %.3f]  acc(all) %.1f%% ± %.1f%%\n",
			r.System,
			r.IEpmJ.Mean(), r.IEpmJ.Std(), r.IEpmJ.Min(), r.IEpmJ.Max(),
			100*r.AccAll.Mean(), 100*r.AccAll.Std())
	}
	fmt.Printf("\n%d replicates in %.1fs\n", grid.Size(), res.Elapsed.Seconds())

	// Determinism check: a serial rerun must reproduce the parallel run
	// byte for byte.
	serial, err := ehinfer.NewSession(ehinfer.WithWorkers(1)).RunGrid(ctx, grid)
	if err != nil {
		log.Fatal(err)
	}
	j1, err := res.JSON()
	if err != nil {
		log.Fatal(err)
	}
	j2, err := serial.JSON()
	if err != nil {
		log.Fatal(err)
	}
	if bytes.Equal(j1, j2) {
		fmt.Println("determinism: parallel and serial runs are byte-identical ✓")
	} else {
		log.Fatal("determinism violated: parallel and serial runs differ")
	}
}
