package nn

import (
	"math"

	"repro/internal/tensor"
)

// InitHe applies He-normal initialization to every Conv2D and Dense layer
// in the chain: weights ~ N(0, 2/fanIn), biases zero. ReLU networks train
// reliably from this init at LeNet scale.
func InitHe(s *Sequential, rng *tensor.RNG) {
	for _, l := range s.Layers {
		switch layer := l.(type) {
		case *Conv2D:
			fanIn := layer.InC * layer.KH * layer.KW
			tensor.FillNormal(layer.W.Value, rng, math.Sqrt(2/float64(fanIn)))
			layer.B.Value.Zero()
		case *Dense:
			tensor.FillNormal(layer.W.Value, rng, math.Sqrt(2/float64(layer.In)))
			layer.B.Value.Zero()
		}
	}
}

// InitFanIn applies the DDPG paper's hidden-layer init: U[-1/√fanIn,
// 1/√fanIn] for all but the final Dense layer, and U[-finalBound,
// finalBound] for the final Dense layer.
func InitFanIn(s *Sequential, rng *tensor.RNG, finalBound float64) {
	lastDense := -1
	for i, l := range s.Layers {
		if _, ok := l.(*Dense); ok {
			lastDense = i
		}
	}
	for i, l := range s.Layers {
		d, ok := l.(*Dense)
		if !ok {
			continue
		}
		if i == lastDense {
			tensor.FillUniform(d.W.Value, rng, -finalBound, finalBound)
			tensor.FillUniform(d.B.Value, rng, -finalBound, finalBound)
			continue
		}
		bound := 1 / math.Sqrt(float64(d.In))
		tensor.FillUniform(d.W.Value, rng, -bound, bound)
		tensor.FillUniform(d.B.Value, rng, -bound, bound)
	}
}
