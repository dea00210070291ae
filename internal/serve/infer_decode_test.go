package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	ehinfer "repro"
)

// benchShapedBody is a request as the repository's serving benchmark
// sends it: Go's json.Marshal of the first n values (3072 for all) of a
// noisy 3×32×32 SynthCIFAR image in shortest float32 form, with a
// backend, plus an exit bound or a threshold when given.
func benchShapedBody(t testing.TB, n int, exit *int, threshold float64) []byte {
	t.Helper()
	_, set := ehinfer.SynthCIFAR(ehinfer.SynthConfig{Seed: 31, NoiseStd: 0.2, Jitter: 0.3}, 1, 1)
	body, err := json.Marshal(struct {
		Artifact  string    `json:"artifact"`
		Backend   string    `json:"backend"`
		Input     []float32 `json:"input"`
		Exit      *int      `json:"exit,omitempty"`
		Threshold float64   `json:"threshold,omitempty"`
	}{"a1", "int8fast", set.Samples[0].Image.Data[:n], exit, threshold})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// smokeBody is scripts/infer_smoke.sh's request: 256 values of 0.5,
// with an optional backend field ahead of the input.
func smokeBody(backend string) []byte {
	sel := ""
	if backend != "" {
		sel = fmt.Sprintf(`"backend":%q,`, backend)
	}
	return []byte(`{"artifact":"a1",` + sel + `"input":[` + strings.TrimSuffix(strings.Repeat("0.5,", 256), ",") + "]}")
}

// loadBody is examples/infer-load's request: a map of artifact, input
// and threshold, so the keys arrive sorted.
func loadBody(t testing.TB) []byte {
	t.Helper()
	rng := ehinfer.NewRNG(1)
	input := make([]float32, 3072)
	for i := range input {
		input[i] = rng.Float32()
	}
	body, err := json.Marshal(map[string]any{"artifact": "a1", "input": input, "threshold": 0.8})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// diffInferRequest describes the first difference between two decoded
// requests, or returns "". Floats compare by bits, and a nil slice
// differs from an empty one.
func diffInferRequest(got, want inferRequest) string {
	switch {
	case got.Artifact != want.Artifact:
		return fmt.Sprintf("artifact %q, want %q", got.Artifact, want.Artifact)
	case got.Deployment != want.Deployment:
		return fmt.Sprintf("deployment %q, want %q", got.Deployment, want.Deployment)
	case got.Backend != want.Backend:
		return fmt.Sprintf("backend %q, want %q", got.Backend, want.Backend)
	case (got.Exit == nil) != (want.Exit == nil):
		return fmt.Sprintf("exit set %v, want %v", got.Exit != nil, want.Exit != nil)
	case got.Exit != nil && *got.Exit != *want.Exit:
		return fmt.Sprintf("exit %d, want %d", *got.Exit, *want.Exit)
	case math.Float64bits(got.Threshold) != math.Float64bits(want.Threshold):
		return fmt.Sprintf("threshold %v, want %v", got.Threshold, want.Threshold)
	case (got.Inputs == nil) != (want.Inputs == nil):
		return fmt.Sprintf("inputs nil %v, want %v", got.Inputs == nil, want.Inputs == nil)
	case len(got.Inputs) != len(want.Inputs):
		return fmt.Sprintf("%d inputs, want %d", len(got.Inputs), len(want.Inputs))
	}
	if d := diffFloats(got.Input, want.Input); d != "" {
		return "input: " + d
	}
	for i := range got.Inputs {
		if d := diffFloats(got.Inputs[i], want.Inputs[i]); d != "" {
			return fmt.Sprintf("inputs[%d]: %s", i, d)
		}
	}
	return ""
}

func diffFloats(got, want []float32) string {
	if (got == nil) != (want == nil) {
		return fmt.Sprintf("nil %v, want %v", got == nil, want == nil)
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d values, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return fmt.Sprintf("[%d] = %v (%#x), want %v (%#x)", i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
	return ""
}

// TestFastInferRequestServesRealBodies: the bodies the repository's own
// clients send must take the single pass. A decoder that always fell
// back would pass every other test here and save nothing.
func TestFastInferRequestServesRealBodies(t *testing.T) {
	exit := 1
	bodies := map[string][]byte{
		"benchmark":           benchShapedBody(t, 3072, nil, 0),
		"benchmark threshold": benchShapedBody(t, 3072, nil, 0.7),
		"benchmark exit":      benchShapedBody(t, 3072, &exit, 0),
		"infer smoke":         smokeBody(""),
		"infer smoke backend": smokeBody("int8fast"),
		"infer-load example":  loadBody(t),
	}
	for name, body := range bodies {
		got, ok := fastInferRequest(body)
		if !ok {
			t.Errorf("%s: fell back to encoding/json", name)
			continue
		}
		want, err := jsonInferRequest(body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := diffInferRequest(got, want); d != "" {
			t.Errorf("%s: %s", name, d)
		}
	}
}

// TestFastInferRequestShape pins which bodies the single pass takes.
// Whatever it takes must decode as encoding/json decodes it; whatever it
// leaves goes to encoding/json.
func TestFastInferRequestShape(t *testing.T) {
	cases := []struct {
		body string
		fast bool
	}{
		{`{}`, true},
		{" \t\r\n{ \"artifact\" : \"a1\" , \"input\" : [ 1 , -2.5e-3 ] } \n", true},
		{`{"deployment":"d","inputs":[[0.25],[],[1E+2,-0]],"exit":-0,"threshold":0.5}`, true},
		{`{"artifact":"a1","input":[]}`, true},
		{`{"inputs":[]}`, true},
		{`{"input":[1e-50,3.4028235e38]}`, true},
		{`{"input":[1e400]}`, false},
		{`{"threshold":1e400}`, false},
		{`{"input":[1.]}`, false},
		{`{"input":[+1]}`, false},
		{`{"input":[.5]}`, false},
		{`{"input":[01]}`, false},
		{`{"input":[0x1p-2]}`, false},
		{`{"input":[1_0]}`, false},
		{`{"input":[NaN]}`, false},
		{`{"exit":1.0}`, false},
		{`{"exit":1e0}`, false},
		{`{"exit":99999999999999999999}`, false},
		{`{"Input":[1]}`, false},
		{`{"\u0069nput":[1]}`, false},
		{`{"artifact":"é"}`, false},
		{`{"input":[1],"input":[2]}`, false},
		{`null`, false},
		{`{"input":null}`, false},
		{`{"input":[1,null]}`, false},
		{`{"input":[1]} x`, false},
		{`{"input":[1]}{}`, false},
		{`{"input":[1,]}`, false},
		{`{"input":[1],}`, false},
		{`{"input":[1,2`, false},
		{`{"frobnicate":1}`, false},
		{``, false},
	}
	for _, tc := range cases {
		got, ok := fastInferRequest([]byte(tc.body))
		if ok != tc.fast {
			t.Errorf("%s: fast path %v, want %v", tc.body, ok, tc.fast)
			continue
		}
		if !ok {
			continue
		}
		want, err := jsonInferRequest([]byte(tc.body))
		if err != nil {
			t.Errorf("%s: fast path took a body encoding/json rejects: %v", tc.body, err)
			continue
		}
		if d := diffInferRequest(got, want); d != "" {
			t.Errorf("%s: %s", tc.body, d)
		}
	}
}

// FuzzDecodeInferRequest checks the single pass against jsonInferRequest
// (encoding/json, strict about trailing bytes and null pixels) on the
// same bytes: whatever the fast path accepts, jsonInferRequest accepts
// and decodes to an equal request, and the full decode rejects exactly
// what jsonInferRequest rejects, with the same ErrBadInput message.
func FuzzDecodeInferRequest(f *testing.F) {
	// Benchmark-shaped seeds carry 24 values, not 3072: the fuzzer
	// minimizes every input that finds new coverage, and on a 30 KB body
	// that stalls it for most of a short run.
	exit := 2
	bench := benchShapedBody(f, 24, nil, 0.9)
	f.Add(bench)
	f.Add(benchShapedBody(f, 24, &exit, 0))
	f.Add(bench[:len(bench)/2])
	for _, s := range []string{
		`{"artifact":"a1","backend":"plan","inputs":[[0.1,0.2],[0.3,-4e-5]]}`,
		`{"input":[]}`,
		`{"inputs":[[],[]]}`,
		`{"input":[-0],"exit":-0}`,
		`{"input":[1e-50]}`,
		`{"input":[1e400],"threshold":1e400}`,
		`{"input":[1.]}`,
		`{"input":[+1]}`,
		`{"input":[.5]}`,
		`{"input":[01]}`,
		`{"\u0069nput":[1]}`,
		`{"Input":[1]}`,
		`{"input":[1],"input":[2]}`,
		`null`,
		`{"deployment":null,"input":[1]}`,
		`{"input":[1,null]}`,
		`{"input":[1]} trailing`,
		`{"input":[1,2`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantErr := jsonInferRequest(body)

		// Decode from a copy, then clobber it: the request must not
		// alias the body buffer.
		buf := bytes.Clone(body)
		fast, ok := fastInferRequest(buf)
		clear(buf)
		if ok {
			if wantErr != nil {
				t.Fatalf("fast path accepted a body encoding/json rejects (%v)", wantErr)
			}
			if d := diffInferRequest(fast, want); d != "" {
				t.Fatalf("fast path decoded differently: %s", d)
			}
		}

		got, err := decodeInferRequest(body)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("decode error %v, encoding/json error %v", err, wantErr)
		case err != nil && !errors.Is(err, ehinfer.ErrBadInput):
			t.Fatalf("decode error %v is not ErrBadInput", err)
		case err != nil && err.Error() != wantErr.Error():
			t.Fatalf("decode error %q, encoding/json error %q", err, wantErr)
		case err == nil:
			if d := diffInferRequest(got, want); d != "" {
				t.Fatalf("decoded differently: %s", d)
			}
		}
	})
}

// BenchmarkDecodeInferRequest decodes one benchmark-shaped body (3072
// floats, about 30 KB) with encoding/json alone and with the single
// pass.
func BenchmarkDecodeInferRequest(b *testing.B) {
	body := benchShapedBody(b, 3072, nil, 0.8)
	for _, bc := range []struct {
		name   string
		decode func([]byte) (inferRequest, error)
	}{
		{"encoding_json", jsonInferRequest},
		{"fast", decodeInferRequest},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := bc.decode(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
