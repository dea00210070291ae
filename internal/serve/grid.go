package serve

import (
	"context"
	"encoding/json"
	"fmt"

	ehinfer "repro"
	"repro/internal/exper"
	"repro/internal/obs"
)

// gridKind is the grid job kind: one item per completed exper point.
func gridKind() *jobKind {
	return &jobKind{
		name: "grid", prefix: "g", tally: true,
		open: openGrid, restore: restoreGrid,
		countResume: func(reg *obs.Registry, items int) {
			reg.Counter(mJobsResumed).Inc()
			reg.Counter(mJobPointsRestored).Add(int64(items))
		},
	}
}

// gridEngine runs one resolved grid on the session's experiment engine.
type gridEngine struct {
	grid      *ehinfer.ExperimentGrid
	completed map[int]ehinfer.ExperimentResult // engine resume set, by point index
}

func openGrid(sv *Server, decode func(spec any) error) (engine, any, error) {
	var spec exper.GridSpec
	if err := decode(&spec); err != nil {
		return nil, nil, err
	}
	// "artifact:<id>" policy names resolve against this server's
	// uploaded artifacts before the process-wide registries.
	grid, err := spec.GridResolved(sv.artifactPolicy)
	if err != nil {
		return nil, nil, err
	}
	return &gridEngine{grid: grid}, &spec, nil
}

func (g *gridEngine) describe() (string, int)    { return g.grid.Name, g.grid.Size() }
func (g *gridEngine) submitted() map[string]any  { return map[string]any{"points": g.grid.Size()} }
func (g *gridEngine) streamed() map[string]any   { return nil }
func (g *gridEngine) bind(*obs.Registry, string) {}

// resume turns journaled point results into the engine's Completed set,
// so the run restores them verbatim and computes only the rest.
func (g *gridEngine) resume(lines [][]byte) ([][]byte, error) {
	points := g.grid.Points()
	g.completed = make(map[int]ehinfer.ExperimentResult, len(lines))
	restored := make([][]byte, 0, len(lines))
	for i, line := range lines {
		var res ehinfer.ExperimentResult
		if err := json.Unmarshal(line, &res); err != nil {
			return nil, fmt.Errorf("journal line %d: %w", i+1, err)
		}
		if res.Skipped {
			// Journals never record skipped points (run filters them), but
			// an old or hand-edited journal must not pin a never-ran point
			// as completed.
			continue
		}
		idx := res.Point.Index
		if idx < 0 || idx >= len(points) {
			return nil, fmt.Errorf("journal line %d: point index %d outside grid of %d", i+1, idx, len(points))
		}
		if points[idx].RunSeed != res.Point.RunSeed {
			// The spec on disk no longer derives the journaled point (e.g.
			// a registry changed under it): replaying would silently mix
			// two different experiments.
			return nil, fmt.Errorf("journal line %d: point %d run seed %d does not match grid's %d",
				i+1, idx, res.Point.RunSeed, points[idx].RunSeed)
		}
		if points[idx].TraceSeed != res.Point.TraceSeed {
			// Likewise for the trace. A line without one was written when
			// each point built its own trace, which this grid does not.
			return nil, fmt.Errorf("journal line %d: point %d trace seed %d does not match grid's %d",
				i+1, idx, res.Point.TraceSeed, points[idx].TraceSeed)
		}
		if _, dup := g.completed[idx]; !dup {
			restored = append(restored, line)
		}
		g.completed[idx] = res
	}
	return restored, nil
}

func (g *gridEngine) run(ctx context.Context, session *ehinfer.Session, emit func(any, bool)) (outcome, error) {
	gr := session.ResumeGrid(ctx, g.grid, g.completed) // nil completed == plain start
	for res := range gr.Results() {
		// Only results the determinism contract can reproduce are
		// journaled: skipped points, and error results produced while the
		// run's context was already dead (a point torn mid-flight by
		// shutdown reports "context canceled" — not the point's own
		// outcome), must be re-run on resume, not restored verbatim, or
		// the resumed final document diverges from an uninterrupted run's.
		emit(res, !res.Skipped && (res.Err == "" || ctx.Err() == nil))
	}
	final, err := gr.Wait()
	if final == nil {
		return outcome{}, err
	}
	// A canceled run still serves the partial document of the points it
	// reached; the rest are marked skipped.
	doc, jerr := final.JSON()
	if err == nil {
		err = jerr
	}
	return outcome{doc: doc, workers: final.Workers, pointErrs: len(final.Errs())}, err
}

// restoreGrid reads a finished grid back from its final document. Its
// Workers telemetry is gone: the determinism contract never serialized
// it.
func restoreGrid(j *job, doc []byte) error {
	var d struct {
		Grid struct {
			Name string `json:"name"`
		} `json:"grid"`
		Results []ehinfer.ExperimentResult `json:"results"`
	}
	if err := json.Unmarshal(doc, &d); err != nil {
		return err
	}
	j.name = d.Grid.Name
	for _, r := range d.Results {
		if r.Err != "" && !r.Skipped {
			j.out.pointErrs++
		}
	}
	var err error
	j.items, err = itemLines(d.Results)
	return err
}
