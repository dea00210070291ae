// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed time, checks the program's outputs, and prints one
// JSON result line:
//
//	bash perfbench/run.sh --workload serve-anytime --seed 1 --seconds 15 --trace 0
//
// run.sh builds ehserved and this program into .bench_build/ first. Three
// workloads drive the real ehserved binary over loopback HTTP; infer-batch
// calls the root package in process. The benchmark uses only the daemon's
// command line and HTTP API and the root package repro, never internal/.
//
// With --trace 0 the result carries the end-to-end metrics listed in
// BENCHMARK.json; with --trace 1 the per-layer metrics, measured from
// outside the program (see README.md). Metric names and units come from
// BENCHMARK.json, so the file and the program cannot drift apart.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func init() {
	// The daemon is started with a parent-death signal, which Linux ties
	// to the thread that forked it. Pinning main to its thread keeps that
	// thread alive for as long as the process runs.
	runtime.LockOSThread()
}

// procStart approximates the process's start: set-up time counts from it.
var procStart = time.Now()

var workloads = map[string]func(context.Context, *bench) error{
	"serve-anytime": serveAnytime,
	"infer-batch":   inferBatch,
	"fleet-mixed":   fleetMixed,
	"grid-sweep":    gridSweep,
}

func main() { os.Exit(run()) }

// stealLimit is the share of the host's CPU time stolen during the
// window above which a run is made once more.
const stealLimit = 0.02

func run() int {
	var (
		root     = flag.String("root", ".", "checkout root (holds BENCHMARK.json and .bench_build/)")
		workload = flag.String("workload", "", "serve-anytime, infer-batch, fleet-mixed or grid-sweep")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 10, "length of the timed window")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	)
	flag.Parse()
	fn := workloads[*workload]
	if fn == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad flags (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		return 2
	}
	spec, err := loadSpec(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	attempt := func() (*bench, error) {
		b := &bench{
			root:     *root,
			out:      filepath.Join(*root, ".bench_build"),
			workload: *workload,
			seed:     *seed,
			window:   time.Duration(*seconds) * time.Second,
			traced:   *trace == 1,
			nproc:    runtime.NumCPU(),
			e2e:      map[string]float64{},
			layer:    map[string]float64{},
		}
		err := fn(ctx, b)
		if err == nil {
			err = ctx.Err()
		}
		return b, err
	}
	b, err := attempt()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "perfbench: the hypervisor stole %.1f%% of the host's CPU time in the window\n", 100*b.steal)
	// This kind of VM loses its CPUs for a minute or so now and then,
	// which slows every wall-clock figure of a run caught in it. Such a
	// run is made once more, and the run with less stolen time counts.
	// Set-up time stays the first run's: only that one is cold.
	if b.steal > stealLimit {
		again, err := attempt()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "perfbench: ran again: %.1f%% stolen\n", 100*again.steal)
		// A failed check of either run stands.
		failures := append(b.failures, again.failures...)
		if again.steal < b.steal {
			again.e2e["setup_s"] = b.e2e["setup_s"]
			b = again
		}
		b.failures = failures
	}
	res, err := b.result(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if b.traced {
		if err := b.writeSpans(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// benchSpec is the part of BENCHMARK.json the program reads.
type benchSpec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// bench is one run's state: flags, the operation counts, the checks that
// failed, and the metrics measured so far.
type bench struct {
	root, out string
	workload  string
	seed      uint64
	window    time.Duration
	traced    bool
	nproc     int

	attempted, failed int
	failures          []string
	e2e, layer        map[string]float64
	spans             []span

	// steal is the share of the host's CPU time stolen by the hypervisor
	// during the timed window (see windowStart).
	steal          float64
	steal0, total0 uint64
}

// check records a failed output check; any failure makes the run's
// result incorrect.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the output line. Untraced runs must have measured
// every end-to-end metric; a traced run reports a layer its workload does
// not exercise as 0. A measured name BENCHMARK.json does not list is a
// bug in the benchmark.
func (b *bench) result(spec *benchSpec) (*result, error) {
	defs, got := spec.EndToEnd, b.e2e
	if b.traced {
		defs, got = spec.PerLayer, b.layer
	}
	listed := map[string]bool{}
	res := &result{
		Correct:   len(b.failures) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		listed[d.Name] = true
		v, ok := got[d.Name]
		if !ok && !b.traced {
			return nil, fmt.Errorf("workload %s did not measure %s", b.workload, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range got {
		if !listed[name] {
			return nil, fmt.Errorf("metric %s is not listed in BENCHMARK.json", name)
		}
	}
	if b.attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	for i, f := range b.failures {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "check: ... %d more\n", len(b.failures)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "check:", f)
	}
	return res, nil
}
