package serve

import (
	"context"
	"encoding/json"
	"fmt"

	ehinfer "repro"
	"repro/internal/fleet"
	"repro/internal/obs"
)

// fleetKind is the fleet job kind: one item per aggregate epoch
// snapshot. A resumed fleet fast-forwards deterministically through its
// journaled epochs and computes only the remainder.
func fleetKind() *jobKind {
	return &jobKind{
		name: "fleet", prefix: "f",
		open: openFleet, restore: restoreFleet,
		countResume: func(reg *obs.Registry, items int) {
			reg.Counter(mFleetsResumed).Inc()
			reg.Counter(mFleetSnapshotsRestored).Add(int64(items))
		},
	}
}

// fleetEngine runs one resolved fleet on the session's fleet engine.
type fleetEngine struct {
	fleet      *fleet.Fleet
	startEpoch int // first epoch the engine emits

	// Per-fleet metric instruments, bound at registration.
	cSnapshots *obs.Counter
	cEvents    *obs.Counter
	cBrownouts *obs.Counter
}

func openFleet(sv *Server, decode func(spec any) error) (engine, any, error) {
	var spec fleet.Spec
	if err := decode(&spec); err != nil {
		return nil, nil, err
	}
	// "artifact:<id>" population policies resolve against this server's
	// uploaded artifacts, exactly as grid policy axes do.
	f, err := spec.Resolve(sv.artifactPolicy)
	if err != nil {
		return nil, nil, err
	}
	return &fleetEngine{fleet: f}, &spec, nil
}

func (e *fleetEngine) describe() (string, int) { return e.fleet.Name, e.fleet.SnapshotCount() }

func (e *fleetEngine) submitted() map[string]any {
	return map[string]any{"devices": e.fleet.Devices, "epochs": e.fleet.Epochs, "snapshots": e.fleet.SnapshotCount()}
}

func (e *fleetEngine) streamed() map[string]any { return map[string]any{"devices": e.fleet.Devices} }

// bind attaches the per-fleet instrument set, labeled by job id (ids
// are stable across restarts, so a resumed fleet continues its series).
func (e *fleetEngine) bind(reg *obs.Registry, id string) {
	e.cSnapshots = reg.Counter(obs.Metric(mFleetSnapshots, "fleet", id))
	e.cEvents = reg.Counter(obs.Metric(mFleetEvents, "fleet", id))
	e.cBrownouts = reg.Counter(obs.Metric(mFleetBrownouts, "fleet", id))
	reg.Gauge(obs.Metric(mFleetDevices, "fleet", id)).Set(float64(e.fleet.Devices))
}

// resume validates journaled epoch snapshots against the spec's shape
// and sets the engine to fast-forward to the epoch after the last one.
func (e *fleetEngine) resume(lines [][]byte) ([][]byte, error) {
	f := e.fleet
	last := -1
	for i, line := range lines {
		var snap ehinfer.FleetSnapshot
		if err := json.Unmarshal(line, &snap); err != nil {
			return nil, fmt.Errorf("journal line %d: %w", i+1, err)
		}
		// The journal must describe the same fleet the spec resolves to
		// now; a registry change under the spec would otherwise splice two
		// different simulations together.
		if snap.Devices != f.Devices || len(snap.Populations) != len(f.Pops) {
			return nil, fmt.Errorf("journal line %d: snapshot shape does not match the spec", i+1)
		}
		for pi, ps := range snap.Populations {
			if ps.Name != f.Pops[pi].Name {
				return nil, fmt.Errorf("journal line %d: population %d is %q, spec says %q",
					i+1, pi, ps.Name, f.Pops[pi].Name)
			}
		}
		if snap.Epoch <= last || snap.Epoch >= f.Epochs {
			return nil, fmt.Errorf("journal line %d: epoch %d out of order (previous %d, fleet has %d)",
				i+1, snap.Epoch, last, f.Epochs)
		}
		last = snap.Epoch
	}
	e.startEpoch = last + 1
	return lines, nil
}

func (e *fleetEngine) run(ctx context.Context, session *ehinfer.Session, emit func(any, bool)) (outcome, error) {
	fr := session.ResumeFleet(ctx, e.fleet, e.startEpoch) // startEpoch 0 == plain start
	for snap := range fr.Snapshots() {
		e.note(snap)
		// Snapshots are only emitted at completed epoch barriers, so every
		// one is a state the determinism contract can fast-forward to.
		emit(snap, true)
	}
	res, err := fr.Wait()
	if err != nil || res == nil {
		return outcome{}, err
	}
	doc, err := res.JSON()
	return outcome{doc: doc}, err
}

// note feeds the per-fleet metric families from one emitted snapshot.
func (e *fleetEngine) note(snap fleet.Snapshot) {
	e.cSnapshots.Inc()
	var events, missed int64
	for _, ps := range snap.Populations {
		events += ps.Events
		missed += ps.Missed
	}
	e.cEvents.Add(events)
	e.cBrownouts.Add(missed)
}

// restoreFleet reads a finished fleet back from its final document.
func restoreFleet(j *job, doc []byte) error {
	var d struct {
		Name      string                  `json:"name"`
		Snapshots []ehinfer.FleetSnapshot `json:"snapshots"`
	}
	if err := json.Unmarshal(doc, &d); err != nil {
		return err
	}
	j.name = d.Name
	var err error
	j.items, err = itemLines(d.Snapshots)
	return err
}
