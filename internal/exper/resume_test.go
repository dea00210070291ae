package exper

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// TestResumeByteIdentical is the checkpoint/replay contract: a run that
// restores half its points from a prior run's results — round-tripped
// through JSON, exactly as a journal replay would deliver them — must
// serialize byte-identically to an uninterrupted run.
func TestResumeByteIdentical(t *testing.T) {
	grid := testGrid()

	full, err := NewEngine(2).RunContext(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.JSON()
	if err != nil {
		t.Fatal(err)
	}

	// Replay every other point through the JSON round trip a journal
	// imposes; SystemRow is exactly float64/string-shaped, so the trip
	// is lossless.
	completed := make(map[int]Result)
	for i, res := range full.Results {
		if i%2 != 0 {
			continue
		}
		line, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var replayed Result
		if err := json.Unmarshal(line, &replayed); err != nil {
			t.Fatal(err)
		}
		completed[i] = replayed
	}

	e := NewEngine(4)
	e.Completed = completed
	var notified int
	e.OnResult = func(Result) { notified++ }
	resumed, err := e.RunContext(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("resumed JSON differs from uninterrupted run:\n--- full ---\n%s\n--- resumed ---\n%s", want, got)
	}
	// Restored points are filled, not re-run: only the remaining half is
	// reported as progress.
	if wantRun := len(grid.Points()) - len(completed); notified != wantRun {
		t.Fatalf("OnResult fired %d times, want %d (restored points must not re-report)", notified, wantRun)
	}
}

// TestResumeAllComplete: restoring every point runs zero workers and
// still produces the identical document.
func TestResumeAllComplete(t *testing.T) {
	grid := testGrid()
	full, err := NewEngine(2).RunContext(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.JSON()
	if err != nil {
		t.Fatal(err)
	}
	completed := make(map[int]Result, len(full.Results))
	for i, res := range full.Results {
		completed[i] = res
	}
	e := NewEngine(4)
	e.Completed = completed
	e.OnResult = func(Result) { t.Error("OnResult fired on a fully-restored run") }
	resumed, err := e.RunContext(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("fully-restored run serialized differently")
	}
}

// TestResumeRejectsOutOfRangeIndex: a corrupt journal index must fail
// loudly, not silently drop or misplace a result.
func TestResumeRejectsOutOfRangeIndex(t *testing.T) {
	grid := testGrid()
	e := NewEngine(1)
	e.Completed = map[int]Result{grid.Size(): {}}
	if _, err := e.RunContext(context.Background(), grid); err == nil {
		t.Fatal("out-of-range completed index accepted")
	}
}
