// Quickstart: build the multi-exit network, compress it onto the MCU
// budget, and simulate one day of event-driven intermittent inference on
// a solar harvesting trace.
package main

import (
	"context"
	"fmt"
	"log"

	ehinfer "repro"
)

func main() {
	// 1. The paper's standard scenario: a 6-hour solar trace in the
	//    weak-harvesting regime with 500 uniformly distributed events.
	scenario := ehinfer.DefaultScenario(1)

	// 2. Compress LeNet-EE with the nonuniform reference policy (the
	//    shape the DDPG search finds: protect shallow layers, quantize
	//    deep ones hard) and package it for deployment. The compressed
	//    model is ~16 KB — it fits the MSP432's weight storage.
	deployed, err := ehinfer.BuildDeployed(ehinfer.Fig1bNonuniform(), 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployed model: %.1f KB, per-exit accuracy %.1f%% / %.1f%% / %.1f%%\n",
		float64(deployed.WeightBytes)/1024,
		100*deployed.ExitAccs[0], 100*deployed.ExitAccs[1], 100*deployed.ExitAccs[2])

	// 3. Run the Q-learning runtime (with a few warm-up episodes) and
	//    the three baselines on the identical trace.
	rows, err := ehinfer.NewSession().CompareSystems(context.Background(), scenario, deployed, ehinfer.CompareConfig{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-14s %8s %10s %10s\n", "system", "IEpmJ", "acc(all)", "latency")
	for _, r := range rows {
		fmt.Printf("%-14s %8.3f %9.1f%% %9.1fs\n", r.System, r.IEpmJ, 100*r.AccAll, r.MeanLatencyS)
	}
	fmt.Printf("\nIEpmJ = interesting events correctly processed per milliJoule harvested (Eq. 1).\n")
}
