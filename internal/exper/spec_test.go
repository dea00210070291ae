package exper

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestGridSpecDefaultsToPaperGrid(t *testing.T) {
	g, err := (&GridSpec{}).Grid()
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 1 {
		t.Fatalf("empty spec must resolve to the 1-point paper scenario, got %d points", g.Size())
	}
	if g.Devices[0].Name != "MSP432" || g.Policies[0].Name != "nonuniform" {
		t.Fatalf("paper defaults expected, got device %q policy %q", g.Devices[0].Name, g.Policies[0].Name)
	}
	if g.Traces[0].Kind != TraceSolar {
		t.Fatalf("default trace must be solar, got %q", g.Traces[0].Kind)
	}
}

func TestGridSpecRoundTripsThroughJSON(t *testing.T) {
	raw := `{
		"name": "wire",
		"baseSeed": 9,
		"events": 20,
		"baselines": true,
		"traces": [{"name": "s", "kind": "solar", "seconds": 900, "peakPower": 0.05}],
		"devices": ["MSP432", "ApolloM4"],
		"policies": ["nonuniform", "full-precision"],
		"exits": [{"name": "q", "mode": 0, "warmup": 2}, {"name": "static", "mode": 1}],
		"storages": [{"name": "3mJ", "storage": {"CapacityMJ": 3, "TurnOnMJ": 0.5, "BrownOutMJ": 0.05, "ChargeEfficiency": 0.9, "LeakMWPerS": 0.0002}}],
		"seeds": [1, 2]
	}`
	var spec GridSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		t.Fatal(err)
	}
	g, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 1*2*2*2*1*2 {
		t.Fatalf("want 16 points, got %d", g.Size())
	}
	if !g.Baselines || g.BaseSeed != 9 || g.Events != 20 {
		t.Fatalf("scalar fields lost in resolution: %+v", g)
	}
}

func TestGridSpecRejectsUnknownNames(t *testing.T) {
	if _, err := (&GridSpec{Devices: []string{"Z80"}}).Grid(); err == nil || !strings.Contains(err.Error(), "unknown device") {
		t.Fatalf("want unknown-device error, got %v", err)
	}
	if _, err := (&GridSpec{Policies: []string{"nope"}}).Grid(); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("want unknown-policy error, got %v", err)
	}
}

func TestRegistriesResolveEveryName(t *testing.T) {
	for _, name := range DeviceNames() {
		d, err := LookupDevice(name)
		if err != nil {
			t.Fatal(err)
		}
		if d.Build() == nil {
			t.Fatalf("device %q builds nil", name)
		}
	}
	for _, name := range PolicyNames() {
		p, err := LookupPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Build() == nil {
			t.Fatalf("policy %q builds nil", name)
		}
	}
}

func TestGridSpecBackend(t *testing.T) {
	g, err := (&GridSpec{Backend: "int8"}).Grid()
	if err != nil {
		t.Fatal(err)
	}
	if g.Backend != "int8" {
		t.Fatalf("backend not carried: %q", g.Backend)
	}
	if _, err := (&GridSpec{Backend: "no-such-backend"}).Grid(); err == nil {
		t.Fatal("unknown backend must be rejected at grid validation")
	}
	if names := BackendNames(); len(names) != 4 {
		t.Fatalf("backend registry drifted: %v", names)
	}
	if g, err := (&GridSpec{Backend: "int8fast"}).Grid(); err != nil || g.Backend != "int8fast" {
		t.Fatalf("int8fast backend not carried: %v %v", g, err)
	}
}

// TestGridSpecRejectsNegativeTraceSeconds: a synthetic trace of negative
// length fails validation, and Build reports it instead of panicking.
func TestGridSpecRejectsNegativeTraceSeconds(t *testing.T) {
	for _, ts := range []TraceSpec{
		{Name: "x", Kind: TraceSolar, Seconds: -1},
		{Name: "x", Kind: TraceKinetic, Seconds: -3600},
	} {
		if _, err := (&GridSpec{Events: 4, Traces: []TraceSpec{ts}}).Grid(); err == nil || !strings.Contains(err.Error(), "negative seconds") {
			t.Fatalf("%s trace with seconds %d: want a negative-seconds error, got %v", ts.Kind, ts.Seconds, err)
		}
		g := &Grid{
			Name: "neg", Traces: []TraceSpec{ts}, Devices: []DeviceSpec{MSP432Device()},
			Policies: []PolicySpec{NonuniformPolicy()}, Exits: []ExitSpec{StaticExit()},
			Storages: []StorageSpec{Capacitor(3)}, Seeds: []uint64{1},
		}
		if err := g.Validate(); err == nil {
			t.Fatalf("%s trace with seconds %d passed Grid.Validate", ts.Kind, ts.Seconds)
		}
		if tr, err := ts.Build(1); err == nil {
			t.Fatalf("%s trace with seconds %d built %d s", ts.Kind, ts.Seconds, tr.Duration())
		}
	}
}
