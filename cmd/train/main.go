// Command train trains the multi-exit LeNet-EE on SynthCIFAR (or real
// CIFAR-10 binary batches if present), optionally applies a compression
// policy from JSON, reports per-exit accuracy before and after, and can
// save the result as a deployment artifact.
//
// With -save-deployed the trained (and compressed) network is packaged
// as a versioned deployment bundle: architecture, weights, measured
// per-exit accuracies, the applied policy, pinned int8 calibration
// scales (calibrated on training samples), and the chosen default
// backend. The artifact is the train-once/serve-many unit: ehsim and
// sweep run it with -deployed, and ehserved accepts it at
// POST /v1/artifacts.
//
// Usage:
//
//	train [-epochs N] [-train N] [-test N] [-augment N] [-seed N]
//	      [-cifar dir] [-policy policy.json]
//	      [-save-deployed model.ehar] [-backend plan|int8fast]
//	      [-name label]
package main

import (
	"flag"
	"fmt"
	"os"

	ehinfer "repro"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/multiexit"
	"repro/internal/tensor"
)

func main() {
	var (
		epochs   = flag.Int("epochs", 6, "training epochs")
		trainN   = flag.Int("train", 400, "SynthCIFAR training samples")
		testN    = flag.Int("test", 200, "SynthCIFAR test samples")
		augment  = flag.Int("augment", 0, "augmented copies per training sample")
		seed     = flag.Uint64("seed", 31, "random seed")
		cifarDir = flag.String("cifar", "", "directory with CIFAR-10 binary batches (overrides SynthCIFAR)")
		policyF  = flag.String("policy", "", "compression policy JSON to apply after training")
		deployF  = flag.String("save-deployed", "", "output deployment-artifact file (architecture + weights + accuracies + policy + calibration)")
		backendF = flag.String("backend", "", "default inference backend recorded in the artifact (plan or int8fast; legacy is an alias of plan, int8 of int8fast)")
		nameF    = flag.String("name", "", "artifact label (default: derived from the policy file)")
	)
	flag.Parse()

	var train, test *dataset.Set
	var err error
	if *cifarDir != "" {
		train, test, err = dataset.LoadCIFAR10Dir(*cifarDir)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("loaded CIFAR-10: %d train, %d test\n", train.Len(), test.Len())
	} else {
		cfg := dataset.SynthConfig{Seed: *seed, NoiseStd: 0.03, Jitter: 0.05}
		train, test = dataset.TrainTest(cfg, *trainN, *testN)
		fmt.Printf("generated SynthCIFAR: %d train, %d test\n", train.Len(), test.Len())
	}
	if *augment > 0 {
		train = train.Augmented(*augment, tensor.NewRNG(*seed+0xa46))
		fmt.Printf("augmented training set to %d samples\n", train.Len())
	}

	backend, err := ehinfer.ParseBackend(*backendF)
	if err != nil {
		fatal(err)
	}

	net := multiexit.LeNetEE(tensor.NewRNG(*seed))
	fmt.Printf("training %d epochs...\n", *epochs)
	if _, err := multiexit.Train(net, train, multiexit.TrainConfig{
		Epochs: *epochs, BatchSize: 25, Seed: *seed, Log: os.Stdout,
	}); err != nil {
		fatal(err)
	}
	accs := multiexit.EvalExits(net, test)
	fmt.Printf("test accuracy: exit1 %.1f%%, exit2 %.1f%%, exit3 %.1f%%\n",
		100*accs[0], 100*accs[1], 100*accs[2])

	var policy *compress.Policy
	if *policyF != "" {
		policy, err = compress.LoadPolicyJSON(*policyF)
		if err != nil {
			fatal(err)
		}
		if err := compress.Apply(net, policy); err != nil {
			fatal(err)
		}
		accs = multiexit.EvalExits(net, test)
		m := compress.MeasureNetwork(net)
		fmt.Printf("after %s: exits %.1f%% / %.1f%% / %.1f%%; F=%.4f MFLOPs, S=%.1f KB\n",
			*policyF, 100*accs[0], 100*accs[1], 100*accs[2],
			float64(m.ModelFLOPs)/1e6, float64(m.WeightBytes)/1024)
	}

	if *deployF != "" {
		deployed, err := core.NewDeployed(net, accs)
		if err != nil {
			fatal(err)
		}
		deployed.DefaultBackend = backend
		// Pin the int8 requantization scales from training samples so
		// the artifact is self-sufficient on the int8fast backend (and
		// never leaks evaluation data into the quantization).
		deployed.BindInt8Calibration(calibrationImages(train, 8))
		name := *nameF
		if name == "" {
			name = "lenet-ee"
			if policy != nil {
				name += "+" + *policyF
			}
		}
		opts := []ehinfer.ArtifactOption{ehinfer.WithArtifactName(name)}
		if policy != nil {
			opts = append(opts, ehinfer.WithArtifactPolicy(policy))
		}
		if err := ehinfer.SaveDeployed(*deployF, deployed, opts...); err != nil {
			fatal(err)
		}
		fmt.Printf("saved deployment artifact to %s (format v%d, %0.1f KB weights)\n",
			*deployF, ehinfer.ArtifactFormatVersion, float64(deployed.WeightBytes)/1024)
	}
}

// calibrationImages picks the first n training images for the int8
// calibration pass.
func calibrationImages(set *dataset.Set, n int) []*tensor.Tensor {
	if set.Len() < n {
		n = set.Len()
	}
	imgs := make([]*tensor.Tensor, 0, n)
	for i := 0; i < n; i++ {
		imgs = append(imgs, set.Samples[i].Image)
	}
	return imgs
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "train:", err)
	os.Exit(1)
}
