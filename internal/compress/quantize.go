package compress

import "math"

// QuantizeWeights applies the paper's Eq. 3 linear quantization in place:
//
//	w' = clamp(round(w/s), −2^{k−1}, 2^{k−1}−1) × s
//
// with the scaling factor s chosen to minimize ‖w' − w‖². The search
// evaluates a deterministic grid of candidate scales between the
// no-clipping scale and an aggressive fraction of it, which is how
// HAQ-style linear quantizers pick s in practice.
func QuantizeWeights(w []float32, bits int) {
	if bits <= 0 || bits >= 32 || len(w) == 0 {
		return
	}
	s := OptimalWeightScale(w, bits)
	if s == 0 {
		return
	}
	lb := -math.Exp2(float64(bits - 1))
	ub := math.Exp2(float64(bits-1)) - 1
	for i, v := range w {
		q := math.Round(float64(v) / s)
		if q < lb {
			q = lb
		} else if q > ub {
			q = ub
		}
		w[i] = float32(q * s)
	}
}

// OptimalWeightScale returns the L2-error-minimizing scale for symmetric
// k-bit quantization of w (0 if w is all zeros).
func OptimalWeightScale(w []float32, bits int) float64 {
	var maxAbs float64
	for _, v := range w {
		a := math.Abs(float64(v))
		if a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return 0
	}
	ub := math.Exp2(float64(bits-1)) - 1
	if ub < 1 {
		// 1-bit: representable levels are {−s, 0}; the clamp upper bound
		// is 0, so scan scales against that degenerate grid too.
		ub = 0
	}
	lb := -math.Exp2(float64(bits - 1))

	// No-clipping scale: every value representable (up to rounding).
	s0 := maxAbs / math.Max(ub, -lb)
	best := s0
	bestErr := quantError(w, s0, lb, ub)
	// Shrinking the scale trades clipping error for resolution; scan a
	// fixed grid for the best trade-off.
	const steps = 32
	for i := 1; i <= steps; i++ {
		s := s0 * (1 - 0.75*float64(i)/steps)
		if s <= 0 {
			break
		}
		if e := quantError(w, s, lb, ub); e < bestErr {
			bestErr = e
			best = s
		}
	}
	return best
}

func quantError(w []float32, s, lb, ub float64) float64 {
	var e float64
	for _, v := range w {
		q := math.Round(float64(v) / s)
		if q < lb {
			q = lb
		} else if q > ub {
			q = ub
		}
		// The explicit conversions forbid fusing the products into the
		// sums, so the chosen scale, and the int8 weights lowered with
		// it, are the same on every platform.
		d := float64(v) - float64(q*s)
		e += float64(d * d)
	}
	return e
}
