// Package obs is the serving path's metrics registry: counters, gauges,
// and histograms with hand-rolled Prometheus text exposition — zero
// dependencies, by design (go.mod stays stdlib-only).
//
// Instruments are identified by their full Prometheus name, label set
// included: Counter(`x_total{route="/v1/infer",code="200"}`) returns the
// one counter for that exact series, creating it on first use. The
// Metric helper builds such names with proper label-value escaping. All
// instruments are safe for concurrent use; WritePrometheus may run
// concurrently with updates and emits a deterministic (sorted) snapshot.
//
// ehserved keeps one registry and exposes it at GET /metrics in
// Prometheus text format.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Instrument kinds, used for TYPE lines and conflict detection.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// Registry holds a set of metric families keyed by family name; each
// family holds one instrument per label set.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// family is every series of one metric name.
type family struct {
	name string
	kind string
	help string
	mu   sync.Mutex
	inst map[string]any // labels ("" or `{k="v",...}`) -> *Counter/*Gauge/*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// splitName separates a full metric name into family and label part.
func splitName(name string) (fam, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// familyFor returns (creating if needed) the family of the given kind;
// registering the same family under two kinds is a programming error.
func (r *Registry) familyFor(famName, kind string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[famName]
	if f == nil {
		f = &family{name: famName, kind: kind, inst: make(map[string]any)}
		r.fams[famName] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: %s already registered as %s, requested as %s", famName, f.kind, kind))
	}
	return f
}

// SetHelp attaches a HELP line to a family (created lazily if its first
// instrument has not arrived yet; the kind is fixed at first instrument).
func (r *Registry) SetHelp(famName, kind, help string) {
	f := r.familyFor(famName, kind)
	f.mu.Lock()
	f.help = help
	f.mu.Unlock()
}

// Counter returns the counter registered under the full name (family
// plus optional {labels}), creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	famName, labels := splitName(name)
	f := r.familyFor(famName, kindCounter)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.inst[labels]; ok {
		return c.(*Counter)
	}
	c := &Counter{}
	f.inst[labels] = c
	return c
}

// Gauge returns the settable gauge registered under the full name,
// creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	famName, labels := splitName(name)
	f := r.familyFor(famName, kindGauge)
	f.mu.Lock()
	defer f.mu.Unlock()
	if g, ok := f.inst[labels]; ok {
		return g.(*Gauge)
	}
	g := &Gauge{}
	f.inst[labels] = g
	return g
}

// GaugeFunc registers a callback-backed gauge: every exposition calls fn
// for the current value. Re-registering the same name replaces the
// callback.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	famName, labels := splitName(name)
	f := r.familyFor(famName, kindGauge)
	f.mu.Lock()
	defer f.mu.Unlock()
	if g, ok := f.inst[labels]; ok {
		g.(*Gauge).fn = fn
		return
	}
	f.inst[labels] = &Gauge{fn: fn}
}

// Histogram returns the histogram registered under the full name,
// creating it with the given bucket upper bounds (ascending; a final
// +Inf bucket is implicit) on first use. Later calls return the existing
// histogram regardless of the buckets argument.
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	famName, labels := splitName(name)
	f := r.familyFor(famName, kindHistogram)
	f.mu.Lock()
	defer f.mu.Unlock()
	if h, ok := f.inst[labels]; ok {
		return h.(*Histogram)
	}
	h := NewHistogram(buckets)
	f.inst[labels] = h
	return h
}

// WritePrometheus emits the registry in Prometheus text exposition
// format (version 0.0.4): families sorted by name, series sorted by
// label set, HELP/TYPE lines first.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		f.mu.Lock()
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		labels := make([]string, 0, len(f.inst))
		for l := range f.inst {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			switch in := f.inst[l].(type) {
			case *Counter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, l, in.Value())
			case *Gauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, l, formatFloat(in.Value()))
			case *Histogram:
				in.writeTo(&b, f.name, l)
			}
		}
		f.mu.Unlock()
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// formatFloat renders a sample value the Prometheus way.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Metric builds a full metric name from a family and label key/value
// pairs, escaping label values: Metric("x_total", "route", "/v1/infer")
// returns `x_total{route="/v1/infer"}`. With no pairs it returns the
// bare family name.
func Metric(famName string, kv ...string) string {
	if len(kv) == 0 {
		return famName
	}
	if len(kv)%2 != 0 {
		panic("obs: Metric needs key/value pairs")
	}
	var b strings.Builder
	b.WriteString(famName)
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Counter is a monotonically increasing integer.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are a programming error and ignored).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable float, optionally backed by a callback.
type Gauge struct {
	bits atomic.Uint64
	fn   func() float64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the callback's result for func-backed gauges, the
// stored value otherwise.
func (g *Gauge) Value() float64 {
	if g.fn != nil {
		return g.fn()
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets (cumulative at
// exposition, per-bucket internally) and tracks sum and count.
type Histogram struct {
	mu      sync.Mutex
	buckets []float64 // ascending upper bounds; +Inf implicit
	counts  []uint64  // len(buckets)+1; last is the +Inf overflow
	sum     float64
	n       uint64
}

// NewHistogram builds a free-standing histogram (not registered
// anywhere) with the given ascending bucket upper bounds.
func NewHistogram(buckets []float64) *Histogram {
	bs := append([]float64(nil), buckets...)
	sort.Float64s(bs)
	return &Histogram{buckets: bs, counts: make([]uint64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	i := sort.SearchFloat64s(h.buckets, v) // first bucket with ub >= v
	h.counts[i]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// BucketCounts returns a copy of the per-bucket (non-cumulative)
// counts; the final element is the +Inf overflow bucket.
func (h *Histogram) BucketCounts() []uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]uint64(nil), h.counts...)
}

// writeTo emits the histogram's exposition lines. labels is "" or a
// `{...}` label part the le label is merged into.
func (h *Histogram) writeTo(b *strings.Builder, famName, labels string) {
	h.mu.Lock()
	counts := append([]uint64(nil), h.counts...)
	sum, n := h.sum, h.n
	h.mu.Unlock()

	var cum uint64
	for i, ub := range h.buckets {
		cum += counts[i]
		fmt.Fprintf(b, "%s_bucket%s %d\n", famName, mergeLE(labels, formatFloat(ub)), cum)
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", famName, mergeLE(labels, "+Inf"), n)
	fmt.Fprintf(b, "%s_sum%s %s\n", famName, labels, formatFloat(sum))
	fmt.Fprintf(b, "%s_count%s %d\n", famName, labels, n)
}

// mergeLE inserts the le label into an existing label part.
func mergeLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// LinearBuckets returns count ascending buckets starting at start,
// width apart — e.g. LinearBuckets(1, 1, 8) for exact small-integer
// counts such as micro-batch sizes.
func LinearBuckets(start, width float64, count int) []float64 {
	bs := make([]float64, count)
	for i := range bs {
		bs[i] = start + float64(i)*width
	}
	return bs
}

// DefLatencyBuckets are the default request-latency bucket bounds, in
// seconds, spanning sub-millisecond plan hits to multi-second stalls.
var DefLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 10,
}
