package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	ehinfer "repro"
)

// promText is a /metrics scrape: series ("name{labels}") to value.
type promText map[string]float64

func parseProm(data []byte) promText {
	p := promText{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			p[line[:i]] = v
		}
	}
	return p
}

// sum adds every series of metric name whose labels contain each of
// the given label pairs (e.g. `model="artifact:a1@plan"`).
func (p promText) sum(name string, labels ...string) float64 {
	var s float64
	for series, v := range p {
		base, rest, _ := strings.Cut(series, "{")
		if base != name {
			continue
		}
		ok := true
		for _, l := range labels {
			ok = ok && strings.Contains(rest, l)
		}
		if ok {
			s += v
		}
	}
	return s
}

// histMean is the mean of a histogram's observations between two
// scrapes, in the histogram's own unit.
func histMean(before, after promText, name string, labels ...string) float64 {
	n := after.sum(name+"_count", labels...) - before.sum(name+"_count", labels...)
	if n == 0 {
		return 0
	}
	return (after.sum(name+"_sum", labels...) - before.sum(name+"_sum", labels...)) / n
}

// procCPU reads a process's user plus system CPU time from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s).
func procCPU(pid string) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%s/stat", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procHWM reads a process's peak resident set (VmHWM) in MiB.
func procHWM(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// hostCPU reads the host's CPU time counters from /proc/stat: ticks
// stolen by the hypervisor, and ticks in all states.
func hostCPU() (steal, total uint64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// windowStart and windowEnd bracket the timed window and record the
// share of the host's CPU time the hypervisor stole during it.
func (b *bench) windowStart() error {
	var err error
	b.steal0, b.total0, err = hostCPU()
	return err
}

func (b *bench) windowEnd() error {
	steal, total, err := hostCPU()
	if err != nil {
		return err
	}
	if total > b.total0 {
		b.steal = float64(steal-b.steal0) / float64(total-b.total0)
	}
	return nil
}

// selfCPU is this process's user plus system CPU time, at microsecond
// resolution.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pct is the nearest-rank q-quantile (0 < q ≤ 1) of xs.
func pct(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latencyMetrics sets the latency percentiles from per-operation times
// in milliseconds. The tail reported is p90: this kind of VM loses its
// CPUs for a few milliseconds now and then, and the handful of
// operations in flight during such a stall set a p99 by themselves (the
// summary on standard error still prints p99).
func (b *bench) latencyMetrics(lat []float64) {
	b.e2e["latency_p50_ms"] = pct(lat, 0.50)
	b.e2e["latency_p90_ms"] = pct(lat, 0.90)
}

// span is one timed call the benchmark made. Spans of one operation
// share ID; Parent names the enclosing span, "" for an operation's root.
type span struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// addSpan records a span in traced runs; untraced runs keep none.
func (b *bench) addSpan(id, name, parent string, start, end time.Time) {
	if b.traced {
		b.spans = append(b.spans, span{ID: id, Name: name, Parent: parent,
			Start: start.Sub(procStart).Nanoseconds(), End: end.Sub(procStart).Nanoseconds()})
	}
}

// writeSpans writes the run's spans, one JSON object a line, under
// .bench_build/trace/.
func (b *bench) writeSpans() error {
	dir := filepath.Join(b.out, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range b.spans {
		if err := enc.Encode(&b.spans[i]); err != nil {
			return err
		}
	}
	name := fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed)
	return os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644)
}

// The served model is cmd/train's default recipe (see README.md); its
// SynthCIFAR class prototypes derive from the training seed.
const (
	modelPath   = "perfbench/model/lenet-ee.ehar"
	trainSeed   = 31
	inputNoise  = 0.2
	inputJitter = 0.3
)

// images draws n distinct SynthCIFAR images from the training prototypes
// with more noise and jitter than training used, so confidence varies
// from image to image. The seed picks how far into the generator's
// stream the draw starts.
func images(seed uint64, n int) [][]float32 {
	cfg := ehinfer.SynthConfig{Seed: trainSeed, NoiseStd: inputNoise, Jitter: inputJitter}
	_, set := ehinfer.SynthCIFAR(cfg, 1+int(seed%1021), n)
	out := make([][]float32, n)
	for i, s := range set.Samples {
		out[i] = s.Image.Data
	}
	return out
}

func readModel(b *bench) ([]byte, error) {
	return os.ReadFile(filepath.Join(b.root, modelPath))
}
