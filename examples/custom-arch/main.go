// Custom architecture: builds a two-exit network with the fluent
// builder, trains it, compresses it, serves it on the integer MCU
// pipeline, and verifies float/integer agreement — the full offline
// deployment path for an architecture other than the paper's LeNet-EE.
package main

import (
	"context"
	"fmt"
	"log"

	ehinfer "repro"
)

func main() {
	// A compact two-exit architecture for 32×32×3 inputs.
	b := ehinfer.NewNetworkBuilder(3, 32, 32, 10)
	b.Conv("c1", 8, 5, 1, 0).ReLU().MaxPool(2, 2)
	b.ExitConv("early", 8, 0, true) // conv branch like LeNet-EE's ConvB1
	b.Conv("c2", 16, 3, 1, 1).ReLU().MaxPool(2, 2)
	b.Exit("final", 32)
	net, err := b.Build(ehinfer.NewRNG(9))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("custom net: %d exits, %.3f / %.3f MFLOPs, %.1f KB fp32\n",
		net.NumExits(),
		float64(net.ExitFLOPs(0))/1e6, float64(net.ExitFLOPs(1))/1e6,
		float64(net.WeightBytes())/1024)

	// Train on SynthCIFAR.
	train, test := ehinfer.SynthCIFAR(ehinfer.SynthConfig{Seed: 21, NoiseStd: 0.03, Jitter: 0.05}, 300, 150)
	fmt.Println("training...")
	if _, err := ehinfer.TrainNetwork(net, train, ehinfer.TrainConfig{Epochs: 5, BatchSize: 25, Seed: 9}); err != nil {
		log.Fatal(err)
	}
	accs := ehinfer.EvalExits(net, test)
	fmt.Printf("float accuracy: early %.1f%%, final %.1f%%\n", 100*accs[0], 100*accs[1])

	// Quantize to 8 bits, package the network, and pin the integer
	// pipeline's requantization scales from training samples.
	if err := ehinfer.ApplyPolicy(net, ehinfer.UniformPolicy(net, 1.0, 8, 8)); err != nil {
		log.Fatal(err)
	}
	deployed, err := ehinfer.NewDeployed(net, ehinfer.EvalExits(net, test))
	if err != nil {
		log.Fatal(err)
	}
	var calib []*ehinfer.Tensor
	for i := 0; i < 16; i++ {
		calib = append(calib, train.Samples[i].Image)
	}
	deployed.BindInt8Calibration(calib)

	// Verify integer inference agrees with float on the test set.
	session := ehinfer.NewSession(ehinfer.WithBackend(ehinfer.BackendInt8Fast))
	agree, correct := 0, 0
	for _, s := range test.Samples {
		fl := net.InferTo(s.Image, 1)
		iq, err := session.Infer(context.Background(), deployed, s.Image.Data)
		if err != nil {
			log.Fatal(err)
		}
		if fl.Predicted() == iq.Class {
			agree++
		}
		if iq.Class == s.Label {
			correct++
		}
	}
	fmt.Printf("integer pipeline: %.1f%% agreement with float, %.1f%% accuracy\n",
		100*float64(agree)/float64(test.Len()),
		100*float64(correct)/float64(test.Len()))
}
