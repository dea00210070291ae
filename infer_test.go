package ehinfer

import (
	"context"
	"strings"
	"sync"
	"testing"
)

// inferDeployed builds a small deployment for the Session.Infer tests.
func inferDeployed(t testing.TB) *Deployed {
	t.Helper()
	d, err := NewSession(WithSeed(5)).BuildDeployed(Fig1bNonuniform())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// inferInput returns a deterministic valid 3072-value input.
func inferInput(seed uint64) []float32 {
	rng := NewRNG(seed)
	in := make([]float32, 3072)
	for i := range in {
		in[i] = rng.Float32()
	}
	return in
}

// TestSessionInfer covers the public online-inference API: defaults,
// per-exit profile, batch/single parity, and option handling.
func TestSessionInfer(t *testing.T) {
	s := NewSession()
	d := inferDeployed(t)
	ctx := context.Background()

	in := inferInput(1)
	pred, err := s.Infer(ctx, d, in)
	if err != nil {
		t.Fatal(err)
	}
	exits := d.Net.NumExits()
	if pred.Exit != exits-1 || pred.Backend != "plan" {
		t.Fatalf("default inference: exit %d backend %q", pred.Exit, pred.Backend)
	}
	if len(pred.ExitConfidences) != exits || len(pred.ExitClasses) != exits {
		t.Fatalf("profile lengths %d/%d", len(pred.ExitConfidences), len(pred.ExitClasses))
	}
	if pred.Class != pred.ExitClasses[pred.Exit] || pred.Confidence != pred.ExitConfidences[pred.Exit] {
		t.Fatal("prediction does not match its own profile")
	}

	// Batch answers must match single-input answers image for image.
	inputs := [][]float32{in, inferInput(2), inferInput(3)}
	preds, err := s.InferBatch(ctx, d, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range inputs {
		solo, err := s.Infer(ctx, d, in)
		if err != nil {
			t.Fatal(err)
		}
		if preds[i].Class != solo.Class || preds[i].Confidence != solo.Confidence {
			t.Fatalf("input %d: batched (%d, %v) vs solo (%d, %v)",
				i, preds[i].Class, preds[i].Confidence, solo.Class, solo.Confidence)
		}
	}

	// Options: exit bound and threshold.
	bounded, err := s.Infer(ctx, d, in, InferToExit(0))
	if err != nil {
		t.Fatal(err)
	}
	if bounded.Exit != 0 || len(bounded.ExitConfidences) != 1 {
		t.Fatalf("exit bound 0: %+v", bounded)
	}
	eager, err := s.Infer(ctx, d, in, InferWithThreshold(1e-9))
	if err != nil {
		t.Fatal(err)
	}
	if eager.Exit != 0 {
		t.Fatalf("tiny threshold took exit %d", eager.Exit)
	}
}

// TestSessionInferValidation: malformed inputs come back as errors that
// name the expected shape, and a canceled context stops a batch.
func TestSessionInferValidation(t *testing.T) {
	s := NewSession()
	d := inferDeployed(t)
	ctx := context.Background()

	if _, err := s.Infer(ctx, d, make([]float32, 7)); err == nil || !strings.Contains(err.Error(), "3072") {
		t.Fatalf("short input: %v", err)
	}
	bad := inferInput(1)
	bad[5] = float32(1e38)
	bad[5] *= 10 // +Inf
	if _, err := s.Infer(ctx, d, bad); err == nil || !strings.Contains(err.Error(), "finite") {
		t.Fatalf("inf input: %v", err)
	}
	if _, err := s.Infer(ctx, nil, inferInput(1)); err == nil {
		t.Fatal("nil deployment accepted")
	}
	if _, err := s.Infer(ctx, d, inferInput(1), InferToExit(99)); err == nil {
		t.Fatal("out-of-range exit accepted")
	}

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := s.InferBatch(canceled, d, [][]float32{inferInput(1)}); err != context.Canceled {
		t.Fatalf("canceled batch: %v", err)
	}
}

// TestSessionInferBackendPreference: the session's WithBackend choice
// rides through to Infer, and the model cache keeps one executor per
// deployment.
func TestSessionInferBackendPreference(t *testing.T) {
	d := inferDeployed(t)
	ctx := context.Background()

	i8, err := NewSession(WithBackend(BackendInt8Fast)).Infer(ctx, d, inferInput(1))
	if err != nil {
		t.Fatal(err)
	}
	if i8.Backend != "int8fast" {
		t.Fatalf("backend %q, want int8fast", i8.Backend)
	}

	s := NewSession()
	if _, err := s.Infer(ctx, d, inferInput(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Infer(ctx, d, inferInput(2)); err != nil {
		t.Fatal(err)
	}
	s.models.mu.Lock()
	cached := len(s.models.m)
	s.models.mu.Unlock()
	if cached != 1 {
		t.Fatalf("model cache holds %d entries, want 1", cached)
	}
}

// TestSessionInferConcurrentSameDeployment hammers one deployment from
// many goroutines — the (-race) gate on Model's pooled execution state:
// a prediction must never be corrupted by a concurrent call.
func TestSessionInferConcurrentSameDeployment(t *testing.T) {
	s := NewSession()
	d := inferDeployed(t)
	ctx := context.Background()
	in := inferInput(11)
	want, err := s.Infer(ctx, d, in, InferWithThreshold(0.5))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				got, err := s.Infer(ctx, d, in, InferWithThreshold(0.5))
				if err != nil {
					t.Error(err)
					return
				}
				if got.Class != want.Class || got.Exit != want.Exit || got.Confidence != want.Confidence {
					t.Errorf("concurrent answer (%d, %d, %v) differs from solo (%d, %d, %v)",
						got.Class, got.Exit, got.Confidence, want.Class, want.Exit, want.Confidence)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSessionInferThresholdOnly: giving only a threshold must keep the
// deepest-exit bound (the zero-value-Exit footgun the functional
// options exist to prevent).
func TestSessionInferThresholdOnly(t *testing.T) {
	s := NewSession()
	d := inferDeployed(t)
	pred, err := s.Infer(context.Background(), d, inferInput(4), InferWithThreshold(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(pred.ExitConfidences) != d.Net.NumExits() {
		t.Fatalf("threshold-only options computed %d exits, want all %d",
			len(pred.ExitConfidences), d.Net.NumExits())
	}
}
