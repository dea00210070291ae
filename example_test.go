package ehinfer_test

// Godoc examples: compile-checked documentation for the main API flows.

import (
	"context"
	"fmt"

	ehinfer "repro"
)

// ExampleLeNetEE shows the paper's architecture accounting: per-exit
// FLOPs and total weight storage of the uncompressed LeNet-EE.
func ExampleLeNetEE() {
	net := ehinfer.LeNetEE(nil)
	for i := 0; i < net.NumExits(); i++ {
		fmt.Printf("exit %d: %.4f MFLOPs\n", i+1, float64(net.ExitFLOPs(i))/1e6)
	}
	fmt.Printf("weights: %.1f KB\n", float64(net.WeightBytes())/1024)
	// Output:
	// exit 1: 0.4414 MFLOPs
	// exit 2: 1.2572 MFLOPs
	// exit 3: 1.6383 MFLOPs
	// weights: 583.6 KB
}

// ExampleApplyPolicy compresses the network with the nonuniform reference
// policy and shows that it meets the paper's deployment constraints.
func ExampleApplyPolicy() {
	net := ehinfer.LeNetEE(ehinfer.NewRNG(1))
	if err := ehinfer.ApplyPolicy(net, ehinfer.Fig1bNonuniform()); err != nil {
		panic(err)
	}
	fmt.Printf("fits 16 KB: %v\n", net.WeightBytes() <= ehinfer.PaperSTargetBytes)
	fmt.Printf("fits 1.15 MFLOPs: %v\n", net.ModelFLOPs() <= ehinfer.PaperFTargetFLOPs)
	// Output:
	// fits 16 KB: true
	// fits 1.15 MFLOPs: true
}

// ExampleNewSurrogate predicts per-exit accuracy for a compression policy
// without retraining.
func ExampleNewSurrogate() {
	net := ehinfer.LeNetEE(nil)
	sur, err := ehinfer.NewSurrogate(net, nil)
	if err != nil {
		panic(err)
	}
	accs := sur.ExitAccuracies(ehinfer.FullPrecision(net))
	fmt.Printf("full precision: %.1f%% / %.1f%% / %.1f%%\n", 100*accs[0], 100*accs[1], 100*accs[2])
	// Output:
	// full precision: 64.9% / 72.0% / 73.0%
}

// ExampleNetwork_Resume demonstrates the paper's incremental inference:
// suspend at an early exit, then resume to a deeper one without
// recomputing the shared trunk.
func ExampleNetwork_Resume() {
	net := ehinfer.LeNetEE(ehinfer.NewRNG(2))
	img := make([]float32, 3*32*32)
	rng := ehinfer.NewRNG(3)
	for i := range img {
		img[i] = rng.Float32()
	}
	t, err := ehinfer.FromImageData(img)
	if err != nil {
		panic(err)
	}
	state := net.InferTo(t, 0)   // cheap early exit
	state = net.Resume(state, 2) // refine to the final exit
	fmt.Println("reached exit:", state.Exit+1)
	// Output:
	// reached exit: 3
}

// ExampleNewNetworkBuilder defines a custom two-exit architecture with
// the fluent builder.
func ExampleNewNetworkBuilder() {
	b := ehinfer.NewNetworkBuilder(3, 32, 32, 10)
	b.Conv("c1", 8, 5, 1, 0).ReLU().MaxPool(2, 2)
	b.Exit("early", 32)
	b.Conv("c2", 16, 3, 1, 1).ReLU().MaxPool(2, 2)
	b.Exit("final", 0)
	net, err := b.Build(ehinfer.NewRNG(4))
	if err != nil {
		panic(err)
	}
	fmt.Println("exits:", net.NumExits())
	// Output:
	// exits: 2
}

// ExampleSyntheticSolarTrace generates a harvesting trace and inspects
// its statistics.
func ExampleSyntheticSolarTrace() {
	trace := ehinfer.SyntheticSolarTrace(ehinfer.SolarConfig{
		Seconds:   3600,
		PeakPower: 0.03,
		Seed:      5,
	})
	fmt.Printf("duration: %d s\n", trace.Duration())
	fmt.Printf("harvestable: %.1f mJ\n", trace.TotalEnergy())
	// Output:
	// duration: 3600 s
	// harvestable: 53.3 mJ
}

// ExampleSession_Infer runs one image through LeNet-EE on the integer
// pipeline an MCU executes (int8 weights, uint8 activations, int32
// accumulators) and scores it at every exit.
func ExampleSession_Infer() {
	net := ehinfer.LeNetEE(ehinfer.NewRNG(6))
	d, err := ehinfer.NewDeployed(net, []float64{0.6, 0.7, 0.8})
	if err != nil {
		panic(err)
	}
	img := make([]float32, 3*32*32)
	rng := ehinfer.NewRNG(7)
	for i := range img {
		img[i] = rng.Float32()
	}
	s := ehinfer.NewSession(ehinfer.WithBackend(ehinfer.BackendInt8Fast))
	pred, err := s.Infer(context.Background(), d, img)
	if err != nil {
		panic(err)
	}
	fmt.Println("backend:", pred.Backend)
	fmt.Println("exits scored:", len(pred.ExitClasses))
	// Output:
	// backend: int8fast
	// exits scored: 3
}
