package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	r.SetHelp("req_total", "counter", "requests served")
	r.Counter(Metric("req_total", "route", "/v1/infer", "code", "200")).Add(3)
	r.Counter(Metric("req_total", "route", "/v1/infer", "code", "429")).Inc()
	r.Counter("plain_total").Add(7)
	r.Gauge(`depth{model="a1"}`).Set(4)
	r.GaugeFunc("uptime_seconds", func() float64 { return 1.5 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP req_total requests served\n",
		"# TYPE req_total counter\n",
		`req_total{route="/v1/infer",code="200"} 3` + "\n",
		`req_total{route="/v1/infer",code="429"} 1` + "\n",
		"plain_total 7\n",
		`depth{model="a1"} 4` + "\n",
		"# TYPE depth gauge\n",
		"uptime_seconds 1.5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Identity: same full name returns the same instrument.
	if got := r.Counter(Metric("req_total", "route", "/v1/infer", "code", "200")).Value(); got != 3 {
		t.Fatalf("GetOrCreate identity broken: %d", got)
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(`lat_seconds{model="m"}`, []float64{0.1, 1})
	for _, v := range []float64{0.05, 0.5, 0.5, 5} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{model="m",le="0.1"} 1` + "\n",
		`lat_seconds_bucket{model="m",le="1"} 3` + "\n",
		`lat_seconds_bucket{model="m",le="+Inf"} 4` + "\n",
		`lat_seconds_sum{model="m"} 6.05` + "\n",
		`lat_seconds_count{model="m"} 4` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if n := h.Count(); n != 4 {
		t.Fatalf("Count = %d", n)
	}
	if bc := h.BucketCounts(); len(bc) != 3 || bc[0] != 1 || bc[1] != 2 || bc[2] != 1 {
		t.Fatalf("BucketCounts = %v", bc)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	h := NewHistogram(LinearBuckets(1, 1, 4))
	// le is inclusive: an observation of exactly 2 lands in the le="2"
	// bucket, which for unit-width integer buckets makes per-bucket
	// counts exact batch-size counts.
	for _, v := range []float64{1, 2, 2, 4, 9} {
		h.Observe(v)
	}
	bc := h.BucketCounts()
	want := []uint64{1, 2, 0, 1, 1}
	for i := range want {
		if bc[i] != want[i] {
			t.Fatalf("BucketCounts = %v, want %v", bc, want)
		}
	}
}

func TestMetricEscaping(t *testing.T) {
	got := Metric("m", "k", "a\"b\\c\nd")
	want := `m{k="a\"b\\c\nd"}`
	if got != want {
		t.Fatalf("Metric = %s, want %s", got, want)
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x_total as a gauge did not panic")
		}
	}()
	r.Gauge("x_total")
}

// TestRegistryConcurrency hammers one registry from many goroutines
// (creates, updates, scrapes) — the -race gate over the obs package.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter(Metric("c_total", "w", fmt.Sprint(g%4))).Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h_seconds", DefLatencyBuckets).Observe(float64(i) / 100)
				if i%50 == 0 {
					var b strings.Builder
					if err := r.WritePrometheus(&b); err != nil {
						t.Error(err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	var sum int64
	for w := 0; w < 4; w++ {
		sum += r.Counter(Metric("c_total", "w", fmt.Sprint(w))).Value()
	}
	if sum != 8*200 {
		t.Fatalf("counter series sum to %d, want %d", sum, 8*200)
	}
	if got := r.Histogram("h_seconds", nil).Count(); got != 8*200 {
		t.Fatalf("histogram count = %d", got)
	}
}

func TestHistogramZeroObservations(t *testing.T) {
	// A registered-but-never-observed histogram must still expose a
	// complete series: every bucket, _sum, and _count at zero. Scrapers
	// treat a missing series as a target change, not a zero.
	r := NewRegistry()
	r.Histogram("cold_seconds", []float64{0.1, 1})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE cold_seconds histogram\n",
		`cold_seconds_bucket{le="0.1"} 0` + "\n",
		`cold_seconds_bucket{le="1"} 0` + "\n",
		`cold_seconds_bucket{le="+Inf"} 0` + "\n",
		"cold_seconds_sum 0\n",
		"cold_seconds_count 0\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("zero-observation exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestGaugeAndHistogramIdentity(t *testing.T) {
	// Re-registering the same full name must return the same instrument
	// (counters already have this covered; pin it for the other kinds).
	r := NewRegistry()
	g := r.Gauge(Metric("depth", "model", "m"))
	g.Set(7)
	if got := r.Gauge(Metric("depth", "model", "m")).Value(); got != 7 {
		t.Fatalf("gauge identity broken: got %v, want 7", got)
	}
	h := r.Histogram(Metric("lat_seconds", "model", "m"), []float64{1})
	h.Observe(0.5)
	h2 := r.Histogram(Metric("lat_seconds", "model", "m"), []float64{1})
	if h2 != h {
		t.Fatal("histogram identity broken: second registration returned a new instrument")
	}
	if got := h2.Count(); got != 1 {
		t.Fatalf("histogram identity broken: count %d, want 1", got)
	}
}

func TestEscapedLabelRoundTrip(t *testing.T) {
	// A label value containing every escapable character must survive
	// Metric -> registry -> WritePrometheus with exposition escaping
	// intact and appear exactly once.
	r := NewRegistry()
	raw := "a\"b\\c\nd"
	r.Counter(Metric("esc_total", "path", raw)).Add(2)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	want := `esc_total{path="a\"b\\c\nd"} 2` + "\n"
	if !strings.Contains(out, want) {
		t.Errorf("escaped label exposition missing %q in:\n%s", want, out)
	}
	if n := strings.Count(out, "esc_total{"); n != 1 {
		t.Errorf("escaped label split into %d series, want 1:\n%s", n, out)
	}
}
