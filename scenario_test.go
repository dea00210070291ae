package ehinfer

import (
	"reflect"
	"testing"
)

// TestScenarioBuilderDefaults: an unconfigured builder reproduces the
// paper scenario exactly (including the session-seeded variant).
func TestScenarioBuilderDefaults(t *testing.T) {
	sc, err := NewScenario().Build()
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultScenario(42)
	if !reflect.DeepEqual(sc.Trace.Power, want.Trace.Power) {
		t.Error("default builder trace diverges from DefaultScenario")
	}
	if !reflect.DeepEqual(sc.Schedule.Events, want.Schedule.Events) {
		t.Error("default builder schedule diverges from DefaultScenario")
	}
	if sc.Device.Name != want.Device.Name || *sc.Storage != *want.Storage {
		t.Error("default builder device/storage diverge from DefaultScenario")
	}

	session := NewSession(WithSeed(9))
	sc2, err := session.NewScenario().Build()
	if err != nil {
		t.Fatal(err)
	}
	want2 := session.Scenario()
	if !reflect.DeepEqual(sc2.Trace.Power, want2.Trace.Power) {
		t.Error("session-seeded builder diverges from Session.Scenario")
	}
}

// TestScenarioBuilderCustomAxes exercises each fluent axis.
func TestScenarioBuilderCustomAxes(t *testing.T) {
	_, test := SynthCIFAR(SynthConfig{Seed: 4}, 4, 30)
	sc, err := NewScenario().
		Seed(5).
		Kinetic(1, 0.8).
		BurstyEvents(60, 4).
		DeviceNamed("ApolloM4").
		Capacitor(10).
		Empirical(test).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Trace.Duration() != 3600 {
		t.Errorf("trace duration %d, want 3600", sc.Trace.Duration())
	}
	if len(sc.Schedule.Events) != 60 {
		t.Errorf("%d events, want 60", len(sc.Schedule.Events))
	}
	if sc.Device.Name != "ApolloM4" {
		t.Errorf("device %q, want ApolloM4", sc.Device.Name)
	}
	if sc.Storage.CapacityMJ != 10 {
		t.Errorf("capacity %g, want 10", sc.Storage.CapacityMJ)
	}
	if sc.TestSet == nil {
		t.Fatal("empirical scenario lost its test set")
	}
	for i, ev := range sc.Schedule.Events {
		if ev.SampleIndex < 0 || ev.SampleIndex >= test.Len() {
			t.Fatalf("event %d has no attached sample", i)
		}
		if test.Samples[ev.SampleIndex].Label != ev.Class {
			t.Fatalf("event %d sample class mismatch", i)
		}
	}
	// A custom trace without an explicit schedule spans the chosen
	// trace, not the default 6 h one.
	sc2, err := NewScenario().Solar(0.25, 0.05).Build()
	if err != nil {
		t.Fatal(err)
	}
	last := sc2.Schedule.Events[len(sc2.Schedule.Events)-1]
	if last.T >= sc2.Trace.Duration() {
		t.Fatalf("default schedule overruns the custom trace (%d ≥ %d)", last.T, sc2.Trace.Duration())
	}
}

// TestScenarioBuilderErrors: invalid axes surface from Build, first one
// wins, and chains never panic.
func TestScenarioBuilderErrors(t *testing.T) {
	if _, err := NewScenario().Events(0, 10).Build(); err == nil {
		t.Error("zero events must fail")
	}
	if _, err := NewScenario().Capacitor(-1).Build(); err == nil {
		t.Error("negative capacity must fail")
	}
	if _, err := NewScenario().DeviceNamed("no-such-mcu").Build(); err == nil {
		t.Error("unknown device name must fail")
	}
	if _, err := NewScenario().Trace(nil).Build(); err == nil {
		t.Error("nil trace must fail")
	}
	if _, err := NewScenario().Empirical(nil).Build(); err == nil {
		t.Error("nil empirical set must fail")
	}
	if _, err := NewScenario().TraceCSV("/does/not/exist.csv").Build(); err == nil {
		t.Error("missing trace file must fail at Build")
	}
	if _, err := NewScenario().Solar(-1, 0.05).Build(); err == nil {
		t.Error("negative solar hours must fail")
	}
	if _, err := NewScenario().Kinetic(-1, 0.9).Build(); err == nil {
		t.Error("negative kinetic hours must fail")
	}
}

// TestFromImageDataValidates covers the shape-naming error (the old
// behaviour was a panic deep inside tensor.FromSlice).
func TestFromImageDataValidates(t *testing.T) {
	if _, err := FromImageData(make([]float32, 10)); err == nil {
		t.Fatal("short slice must be rejected")
	}
	img, err := FromImageData(make([]float32, 3*32*32))
	if err != nil {
		t.Fatal(err)
	}
	if got := img.Shape(); got[0] != 3 || got[1] != 32 || got[2] != 32 {
		t.Fatalf("unexpected shape %v", got)
	}
}
