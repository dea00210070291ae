package exper

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
)

// GridResult is a completed grid run: one Result per point, in the
// grid's enumeration order.
type GridResult struct {
	Grid    *Grid    `json:"grid"`
	Results []Result `json:"results"`
	// Workers is the resolved worker-pool size that executed the run —
	// recorded for reproducibility logs (the "how was this produced"
	// line). Like Elapsed it is excluded from JSON, because the engine's
	// contract is that serialized output is identical at any worker
	// count.
	Workers int `json:"-"`
	// Elapsed is wall-clock telemetry; it is excluded from JSON so the
	// serialized output of a grid is reproducible byte for byte.
	Elapsed time.Duration `json:"-"`
}

// Errs returns the failed points' error strings (empty when all points
// succeeded). Points a canceled run never reached are skipped, not
// failed, and are excluded — count them with Skipped.
func (gr *GridResult) Errs() []string {
	var errs []string
	for _, r := range gr.Results {
		if r.Err != "" && !r.Skipped {
			errs = append(errs, fmt.Sprintf("point %d (%s seed %d): %s",
				r.Point.Index, r.Point.GroupKey(), r.Point.Seed, r.Err))
		}
	}
	return errs
}

// Skipped counts the points a canceled run never reached.
func (gr *GridResult) Skipped() int {
	n := 0
	for _, r := range gr.Results {
		if r.Skipped {
			n++
		}
	}
	return n
}

// JSON serializes the grid, every per-point row, and the across-seed
// aggregates, deterministically: same grid ⇒ same bytes, at any worker
// count. Per-point results are in enumeration order and aggregate rows
// are key-sorted, so no map-iteration or scheduling order leaks into the
// output and serialized reports diff cleanly across runs.
func (gr *GridResult) JSON() ([]byte, error) {
	return json.MarshalIndent(struct {
		Grid       *Grid    `json:"grid"`
		Results    []Result `json:"results"`
		Aggregates []AggRow `json:"aggregates"`
	}{gr.Grid, gr.Results, gr.Aggregate()}, "", "  ")
}

// AggRow is one across-seed aggregate: a (scenario, system) pair with
// the headline metrics summarized over the grid's seed axis.
type AggRow struct {
	Trace   string `json:"trace"`
	Device  string `json:"device"`
	Policy  string `json:"policy"`
	Exit    string `json:"exit"`
	Storage string `json:"storage"`
	System  string `json:"system"`

	IEpmJ        *metrics.Aggregate `json:"iepmj"`
	AccAll       *metrics.Aggregate `json:"accAll"`
	AccProcessed *metrics.Aggregate `json:"accProcessed"`
	LatencyS     *metrics.Aggregate `json:"latencyS"`
}

// SortKey is the row's stable ordering identity: the scenario key (all
// axes except seed) followed by the system name.
func (r AggRow) SortKey() string {
	return r.Trace + "|" + r.Device + "|" + r.Policy + "|" + r.Exit + "|" + r.Storage + "|" + r.System
}

// Aggregate groups results by scenario (all axes except seed) and system,
// and summarizes IEpmJ, accuracy, and latency across seeds. Values are
// accumulated in enumeration order and rows are sorted by (scenario,
// system) key, so the output is deterministic and key-order-stable no
// matter how the grid's axes are permuted. Failed points are skipped.
func (gr *GridResult) Aggregate() []AggRow {
	type key struct{ group, system string }
	index := map[key]int{}
	var rows []AggRow
	for _, r := range gr.Results {
		if r.Err != "" {
			continue
		}
		for _, row := range r.Rows {
			k := key{r.Point.GroupKey(), row.System}
			i, ok := index[k]
			if !ok {
				i = len(rows)
				index[k] = i
				rows = append(rows, AggRow{
					Trace: r.Point.Trace.Name, Device: r.Point.Device.Name,
					Policy: r.Point.Policy.Name, Exit: r.Point.Exit.Name,
					Storage: r.Point.Storage.Name, System: row.System,
					IEpmJ:        metrics.NewAggregate("IEpmJ"),
					AccAll:       metrics.NewAggregate("accAll"),
					AccProcessed: metrics.NewAggregate("accProcessed"),
					LatencyS:     metrics.NewAggregate("latencyS"),
				})
			}
			rows[i].IEpmJ.Add(row.IEpmJ)
			rows[i].AccAll.Add(row.AccAll)
			rows[i].AccProcessed.Add(row.AccProcessed)
			if row.ProcessedFrac > 0 {
				// Runs that processed nothing have no latency to report;
				// counting their zero would bias the mean low.
				rows[i].LatencyS.Add(row.MeanLatencyS)
			}
		}
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].SortKey() < rows[b].SortKey() })
	return rows
}

// AggTable renders the across-seed aggregates as an aligned text table:
// one line per (scenario, system), IEpmJ and accuracy as mean ± std.
func (gr *GridResult) AggTable() string {
	rows := gr.Aggregate()
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %-14s %-14s %-12s %-8s %-14s | %-17s %-17s %9s %6s\n",
		"trace", "device", "policy", "exit", "cap", "system",
		"IEpmJ (mean±std)", "acc-all (mean±std)", "lat s", "n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %-14s %-14s %-12s %-8s %-14s | %8.3f ± %-6.3f %8.1f%% ± %-5.1f %9.1f %6d\n",
			r.Trace, r.Device, r.Policy, r.Exit, r.Storage, r.System,
			r.IEpmJ.Mean(), r.IEpmJ.Std(),
			100*r.AccAll.Mean(), 100*r.AccAll.Std(),
			r.LatencyS.Mean(), r.IEpmJ.N())
	}
	return b.String()
}

// Table renders every per-point row (no aggregation) — the long-form
// view for small grids.
func (gr *GridResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%5s %-18s %-14s %-14s %-12s %-8s %6s %-14s %8s %9s %9s\n",
		"point", "trace", "device", "policy", "exit", "cap", "seed", "system", "IEpmJ", "acc-all", "lat s")
	for _, r := range gr.Results {
		if r.Err != "" {
			fmt.Fprintf(&b, "%5d %-18s ERROR: %s\n", r.Point.Index, r.Point.Trace.Name, r.Err)
			continue
		}
		for _, row := range r.Rows {
			fmt.Fprintf(&b, "%5d %-18s %-14s %-14s %-12s %-8s %6d %-14s %8.3f %8.1f%% %9.1f\n",
				r.Point.Index, r.Point.Trace.Name, r.Point.Device.Name,
				r.Point.Policy.Name, r.Point.Exit.Name, r.Point.Storage.Name,
				r.Point.Seed, row.System, row.IEpmJ, 100*row.AccAll, row.MeanLatencyS)
		}
	}
	return b.String()
}
