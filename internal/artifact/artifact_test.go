package artifact

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/tensor"
)

// testBundle builds a deterministic compressed deployment with a bound
// int8 calibration and a default backend — every optional field
// populated, so round trips exercise the whole manifest.
func testBundle(t *testing.T) *Bundle {
	t.Helper()
	policy := compress.Fig1bNonuniform()
	d, err := core.BuildDeployed(policy, 11)
	if err != nil {
		t.Fatal(err)
	}
	d.DefaultBackend = core.BackendInt8Fast
	_, test := dataset.TrainTest(dataset.SynthConfig{Seed: 11}, 2, 6)
	var imgs []*tensor.Tensor
	for i := 0; i < 4; i++ {
		imgs = append(imgs, test.Samples[i].Image)
	}
	d.BindInt8Calibration(imgs)
	return &Bundle{Name: "test-bundle", Deployed: d, Policy: policy}
}

func encodeBytes(t *testing.T, b *Bundle) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, b); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	b := testBundle(t)
	data := encodeBytes(t, b)

	got, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != b.Name {
		t.Errorf("name %q, want %q", got.Name, b.Name)
	}
	d, d2 := b.Deployed, got.Deployed
	if !reflect.DeepEqual(d2.ExitAccs, d.ExitAccs) {
		t.Errorf("exit accuracies diverge: %v vs %v", d2.ExitAccs, d.ExitAccs)
	}
	if !reflect.DeepEqual(d2.ExitFLOPs, d.ExitFLOPs) {
		t.Errorf("exit FLOPs diverge: %v vs %v", d2.ExitFLOPs, d.ExitFLOPs)
	}
	if !reflect.DeepEqual(d2.Marginal, d.Marginal) {
		t.Error("marginal cost matrix diverges")
	}
	if d2.WeightBytes != d.WeightBytes {
		t.Errorf("weight bytes %d, want %d", d2.WeightBytes, d.WeightBytes)
	}
	if d2.DefaultBackend != core.BackendInt8Fast {
		t.Errorf("default backend %v, want int8fast", d2.DefaultBackend)
	}
	if !reflect.DeepEqual(d2.Int8Calibration, d.Int8Calibration) {
		t.Error("int8 calibration diverges")
	}
	if !reflect.DeepEqual(got.Policy, b.Policy) {
		t.Error("policy diverges")
	}
	p1, p2 := d.Net.Params(), d2.Net.Params()
	if len(p1) != len(p2) {
		t.Fatalf("param count %d, want %d", len(p2), len(p1))
	}
	for i := range p1 {
		if !reflect.DeepEqual(p1[i].Value.Data, p2[i].Value.Data) {
			t.Fatalf("param %q weights diverge", p1[i].Name)
		}
	}

	// Encoding is deterministic: re-encoding the decoded bundle yields
	// the same bytes.
	if !bytes.Equal(encodeBytes(t, got), data) {
		t.Error("re-encoded artifact bytes differ")
	}
}

func TestFileRoundTrip(t *testing.T) {
	b := testBundle(t)
	path := filepath.Join(t.TempDir(), "d.ehar")
	if err := WriteFile(path, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Deployed.WeightBytes != b.Deployed.WeightBytes {
		t.Error("file round trip lost the deployment")
	}
}

// TestDecodeStrict corrupts a valid artifact in every structural way the
// format guards against and demands a decode error for each.
func TestDecodeStrict(t *testing.T) {
	data := encodeBytes(t, testBundle(t))

	mlen := binary.LittleEndian.Uint32(data[8:12])
	sectionsAt := 12 + int(mlen)

	mutate := func(fn func(d []byte) []byte) []byte {
		d := append([]byte(nil), data...)
		return fn(d)
	}
	cases := map[string][]byte{
		"empty": {},
		"bad magic": mutate(func(d []byte) []byte {
			copy(d[:4], "NOPE")
			return d
		}),
		"version skew": mutate(func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[4:8], FormatVersion+1)
			return d
		}),
		"zero version": mutate(func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[4:8], 0)
			return d
		}),
		"zero manifest length": mutate(func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[8:12], 0)
			return d
		}),
		"oversized manifest length": mutate(func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[8:12], 1<<31)
			return d
		}),
		"corrupt manifest JSON": mutate(func(d []byte) []byte {
			d[12] = '!'
			return d
		}),
		"truncated header":        data[:7],
		"truncated manifest":      data[:12+int(mlen)/2],
		"truncated first section": data[:sectionsAt+3],
		"truncated last section":  data[:len(data)-1],
		"trailing garbage":        append(append([]byte(nil), data...), 0xAA),
		"manifest/section length skew": mutate(func(d []byte) []byte {
			// Claim a longer manifest so section reads start mid-stream.
			binary.LittleEndian.PutUint32(d[8:12], mlen+4)
			return d
		}),
	}
	for name, corrupted := range cases {
		if _, err := Decode(bytes.NewReader(corrupted)); err == nil {
			t.Errorf("%s: decode accepted a corrupted artifact", name)
		}
	}
}

// patchManifest replaces the first occurrence of old in an encoded
// artifact's manifest with repl and rewrites the manifest length word.
func patchManifest(t *testing.T, data []byte, old, repl string) []byte {
	t.Helper()
	mlen := binary.LittleEndian.Uint32(data[8:12])
	man := data[12 : 12+int(mlen)]
	patched := bytes.Replace(man, []byte(old), []byte(repl), 1)
	if bytes.Equal(patched, man) {
		t.Fatalf("manifest patch %q did not apply", old)
	}
	var out bytes.Buffer
	out.Write(data[:8])
	var l [4]byte
	binary.LittleEndian.PutUint32(l[:], uint32(len(patched)))
	out.Write(l[:])
	out.Write(patched)
	out.Write(data[12+int(mlen):])
	return out.Bytes()
}

// TestDecodeRejectsUnknownManifestFields: unknown fields signal version
// skew and must be refused, per the format's version policy.
func TestDecodeRejectsUnknownManifestFields(t *testing.T) {
	data := patchManifest(t, encodeBytes(t, testBundle(t)), `{"name"`, `{"fromTheFuture":1,"name"`)
	_, err := Decode(bytes.NewReader(data))
	if err == nil || !strings.Contains(err.Error(), "manifest") {
		t.Fatalf("expected manifest error for unknown field, got %v", err)
	}
}

// TestDecodeInt8BackendAlias: artifacts written with "int8" as their
// default backend decode onto the integer backend, and re-encode under
// its canonical name.
func TestDecodeInt8BackendAlias(t *testing.T) {
	data := encodeBytes(t, testBundle(t))
	old := patchManifest(t, data, `"backend":"int8fast"`, `"backend":"int8"`)
	got, err := Decode(bytes.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	if got.Deployed.DefaultBackend != core.BackendInt8Fast {
		t.Fatalf("an \"int8\" manifest decoded to backend %v, want int8fast", got.Deployed.DefaultBackend)
	}
	if !bytes.Equal(encodeBytes(t, got), data) {
		t.Fatal("re-encoding an \"int8\" artifact does not give the canonical bytes")
	}
}

// TestDecodeShapeMismatch flips a declared section shape and expects the
// decode to name the parameter.
func TestDecodeShapeMismatch(t *testing.T) {
	// Conv1.W is [6,3,5,5]; declare [6,3,5,6] instead.
	data := patchManifest(t, encodeBytes(t, testBundle(t)), `"shape":[6,3,5,5]`, `"shape":[6,3,5,6]`)
	_, err := Decode(bytes.NewReader(data))
	if err == nil || !strings.Contains(err.Error(), "shape") {
		t.Fatalf("expected shape mismatch error, got %v", err)
	}
}

// TestDecodeRejectsPartialCalibration: pinned int8 scales that cover
// only some of a sequential's weighted layers would silently fall back
// to the static ceiling for the rest — a quantization differing from
// the saved deployment — so the strict decode refuses them.
func TestDecodeRejectsPartialCalibration(t *testing.T) {
	b := testBundle(t)
	// LeNet-EE's branch 1 has three weighted layers (ConvB2, FC-B21,
	// FC-B22), so dropping one ceiling yields a non-empty partial slice.
	br1 := b.Deployed.Int8Calibration.Branches[1]
	if len(br1) < 2 {
		t.Fatalf("expected ≥2 calibrated layers in branch 1, got %d", len(br1))
	}
	b.Deployed.Int8Calibration.Branches[1] = br1[:len(br1)-1]
	data := encodeBytes(t, b)
	if _, err := Decode(bytes.NewReader(data)); err == nil {
		t.Fatal("decode accepted a partially-calibrated artifact")
	}

	// The all-empty form ("uncalibrated") stays legal.
	b2 := testBundle(t)
	for i := range b2.Deployed.Int8Calibration.Segments {
		b2.Deployed.Int8Calibration.Segments[i] = nil
		b2.Deployed.Int8Calibration.Branches[i] = nil
	}
	if _, err := Decode(bytes.NewReader(encodeBytes(t, b2))); err != nil {
		t.Fatalf("decode rejected the legal uncalibrated form: %v", err)
	}
}

// TestEncodeRejects covers unencodable bundles.
func TestEncodeRejects(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, nil); err == nil {
		t.Error("nil bundle must not encode")
	}
	if err := Encode(&buf, &Bundle{}); err == nil {
		t.Error("bundle without deployment must not encode")
	}
	b := testBundle(t)
	b.Policy = &compress.Policy{} // invalid: empty
	if err := Encode(&buf, b); err == nil {
		t.Error("bundle with invalid policy must not encode")
	}
}
