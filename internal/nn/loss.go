package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Softmax converts logits [N, classes] into probabilities row-wise with the
// usual max-shift for numerical stability.
func Softmax(logits *tensor.Tensor) *tensor.Tensor {
	if logits.Rank() != 2 {
		panic(fmt.Sprintf("nn: Softmax expects [N, classes], got %v", logits.Shape()))
	}
	n, c := logits.Dim(0), logits.Dim(1)
	out := tensor.New(n, c)
	for i := 0; i < n; i++ {
		row := logits.Data[i*c : (i+1)*c]
		dst := out.Data[i*c : (i+1)*c]
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v - maxV))
			dst[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range dst {
			dst[j] *= inv
		}
	}
	return out
}

// Entropy returns the Shannon entropy (nats) of a probability row vector.
// The paper uses entropy at an exit as the (inverse) confidence measure:
// low entropy ⇒ confident result.
func Entropy(probs []float32) float64 {
	var h float64
	for _, p := range probs {
		if p > 0 {
			h -= float64(p) * math.Log(float64(p))
		}
	}
	return h
}

// NormalizedEntropy returns entropy scaled into [0, 1] by dividing by
// log(classes), so thresholds are architecture-independent. The result
// is clamped to that range: float32 probabilities of a near-uniform row
// each round up past 1/classes, which puts the raw ratio a few ulps
// above 1.
func NormalizedEntropy(probs []float32) float64 {
	if len(probs) <= 1 {
		return 0
	}
	return min(max(Entropy(probs)/math.Log(float64(len(probs))), 0), 1)
}

// CrossEntropyLoss computes mean softmax cross-entropy over the batch and
// the gradient with respect to the logits.
func CrossEntropyLoss(logits *tensor.Tensor, labels []int) (loss float64, grad *tensor.Tensor) {
	n, c := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		panic(fmt.Sprintf("nn: CrossEntropyLoss got %d labels for batch of %d", len(labels), n))
	}
	probs := Softmax(logits)
	grad = tensor.New(n, c)
	invN := float32(1) / float32(n)
	for i := 0; i < n; i++ {
		lbl := labels[i]
		if lbl < 0 || lbl >= c {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", lbl, c))
		}
		row := probs.Data[i*c : (i+1)*c]
		p := float64(row[lbl])
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
		dst := grad.Data[i*c : (i+1)*c]
		for j, pv := range row {
			dst[j] = pv * invN
		}
		dst[lbl] -= invN
	}
	loss /= float64(n)
	return loss, grad
}

// Accuracy returns the fraction of rows whose argmax matches the label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	n, c := logits.Dim(0), logits.Dim(1)
	if n == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < n; i++ {
		row := logits.Data[i*c : (i+1)*c]
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		if best == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(n)
}
