package metrics

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("server.requests{op=insert}")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("server.requests{op=insert}"); again != c {
		t.Fatal("re-registering the same name must return the same counter")
	}
	g := r.Gauge("recovery.entries")
	g.Set(42)
	g.Add(-2)
	if got := g.Value(); got != 40 {
		t.Fatalf("gauge = %d, want 40", got)
	}
}

func TestNilMetricsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", 1)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must return nil metrics")
	}
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(5)
	h.Merge(h)
	r.GaugeFunc("f", func() float64 { return 1 })
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("nil metrics must read as zero")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatalf("nil registry WritePrometheus: %v", err)
	}
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dual")
	defer func() {
		if recover() == nil {
			t.Fatal("registering the same name as a different type must panic")
		}
	}()
	r.Gauge("dual")
}

// TestHistogramBucketGeometry pins the log₂ bucket invariants: every
// value lands in a bucket whose bounds contain it, and bucket width
// never exceeds 12.5% of the value.
func TestHistogramBucketGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(v uint64) {
		idx := histBucketOf(v)
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range", v, idx)
		}
		lo, hi := histBucketLower(idx), histBucketUpper(idx)
		if v < lo || v > hi {
			t.Fatalf("value %d outside bucket %d bounds [%d,%d]", v, idx, lo, hi)
		}
		if idx > 0 && histBucketUpper(idx-1) != lo-1 {
			t.Fatalf("bucket %d not contiguous with predecessor", idx)
		}
		if v >= histSub {
			if width := hi - lo + 1; float64(width) > 0.125*float64(v)+1 {
				t.Fatalf("bucket %d width %d too wide for value %d", idx, width, v)
			}
		}
	}
	for v := uint64(0); v < 4096; v++ {
		check(v)
	}
	for i := 0; i < 10000; i++ {
		check(rng.Uint64() >> uint(rng.Intn(64)))
	}
	check(1<<64 - 1)
}

// TestHistogramQuantileMatchesDistribution is the property test pinning
// the bounded histogram against the exact nearest-rank reference
// (exactPercentile): on random workloads of several shapes, every queried
// percentile must land in the same log₂ bucket as the exact
// nearest-rank answer.
func TestHistogramQuantileMatchesDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := map[string]func() uint64{
		"uniform":  func() uint64 { return uint64(rng.Intn(1_000_000)) },
		"exp":      func() uint64 { return uint64(rng.ExpFloat64() * 50_000) },
		"powerlaw": func() uint64 { return uint64(1) << uint(rng.Intn(40)) },
		"small":    func() uint64 { return uint64(rng.Intn(16)) },
	}
	quantiles := []float64{0, 0.5, 0.9, 0.95, 0.99, 0.999, 1}
	for name, gen := range shapes {
		for trial := 0; trial < 5; trial++ {
			var h Histogram
			var d []float64
			n := 100 + rng.Intn(10000)
			for i := 0; i < n; i++ {
				v := gen()
				h.Observe(int64(v))
				d = append(d, float64(v))
			}
			for _, q := range quantiles {
				exact := uint64(exactPercentile(d, q*100))
				approx := uint64(h.Quantile(q))
				if histBucketOf(exact) != histBucketOf(approx) {
					t.Fatalf("%s trial %d q=%v: histogram %d (bucket %d) vs exact %d (bucket %d)",
						name, trial, q, approx, histBucketOf(approx), exact, histBucketOf(exact))
				}
			}
			if h.Max() != uint64(exactPercentile(d, 100)) {
				t.Fatalf("%s: max %d != exact %v", name, h.Max(), exactPercentile(d, 100))
			}
			if uint64(h.Quantile(1)) != h.Max() {
				t.Fatalf("%s: Quantile(1)=%v must equal exact max %d", name, h.Quantile(1), h.Max())
			}
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var whole, a, b Histogram
	for i := 0; i < 5000; i++ {
		v := int64(rng.Intn(1 << 20))
		whole.Observe(v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	a.Merge(&b)
	if a.Count() != whole.Count() || a.Sum() != whole.Sum() || a.Max() != whole.Max() {
		t.Fatalf("merge mismatch: count %d/%d sum %d/%d max %d/%d",
			a.Count(), whole.Count(), a.Sum(), whole.Sum(), a.Max(), whole.Max())
	}
	for _, q := range []float64{0.5, 0.99, 1} {
		if a.Quantile(q) != whole.Quantile(q) {
			t.Fatalf("merge q=%v: %v != %v", q, a.Quantile(q), whole.Quantile(q))
		}
	}
}

// TestHotPathZeroAllocs gates the instrumentation hot paths at 0
// allocs/op — mirrored by a dedicated CI step — so metering the serving
// layers cannot add GC pressure to what they measure.
func TestHotPathZeroAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot.counter")
	g := r.Gauge("hot.gauge")
	h := r.Histogram("hot.hist", 1)
	var v int64
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Fatalf("Counter.Add allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(v); v++ }); n != 0 {
		t.Fatalf("Gauge.Set allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(v); v += 997 }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v/op, want 0", n)
	}
}

// TestRegistryConcurrent hammers registration and the hot paths from
// many goroutines; run under -race in CI it proves the registry and
// metrics are race-clean.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("conc.counter")
			h := r.Histogram("conc.hist", 1)
			g := r.Gauge("conc.gauge")
			for i := 0; i < 10000; i++ {
				c.Inc()
				h.Observe(int64(i))
				g.Set(int64(i))
				if i%1000 == 0 {
					var sb strings.Builder
					_ = r.WritePrometheus(&sb)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("conc.counter").Value(); got != 80000 {
		t.Fatalf("counter = %d, want 80000", got)
	}
	if got := r.Histogram("conc.hist", 1).Count(); got != 80000 {
		t.Fatalf("histogram count = %d, want 80000", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("server.requests{op=insert}").Add(3)
	r.Counter("server.requests{op=lookup}").Add(7)
	r.Gauge("recovery.wal_records_replayed").Set(12)
	r.GaugeFunc("server.queue_depth{shard=0}", func() float64 { return 4 })
	h := r.Histogram("wal.fsync_seconds", 1e-9)
	for i := 0; i < 1000; i++ {
		h.Observe(1_000_000) // 1ms in ns
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE server_requests counter\n",
		`server_requests{op="insert"} 3` + "\n",
		`server_requests{op="lookup"} 7` + "\n",
		"# TYPE recovery_wal_records_replayed gauge\n",
		"recovery_wal_records_replayed 12\n",
		`server_queue_depth{shard="0"} 4` + "\n",
		"# TYPE wal_fsync_seconds summary\n",
		`wal_fsync_seconds{quantile="0.5"} 0.001`,
		"wal_fsync_seconds_count 1000\n",
		"wal_fsync_seconds_sum 1\n",
		"wal_fsync_seconds_max 0.001\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE server_requests counter") != 1 {
		t.Fatalf("TYPE line must appear once per family:\n%s", out)
	}
}

// TestWritePrometheusMaxSeries pins the _max series to the histogram's
// CAS-tracked exact maximum (not the bucket-quantized quantile), with
// the registration scale applied and labels preserved.
func TestWritePrometheusMaxSeries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("server.service_seconds{op=insert}", 1e-9)
	h.Observe(1_000_000)
	h.Observe(123_456_789) // an exact max no log2 bucket boundary hits
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	exact := fmtFloat(float64(123_456_789) * 1e-9)
	want := `server_service_seconds_max{op="insert"} ` + exact + "\n"
	if !strings.Contains(out, want) {
		t.Fatalf("exposition missing %q:\n%s", want, out)
	}
	// _max must agree with the quantile="1" line, which is already exact.
	if !strings.Contains(out, `server_service_seconds{op="insert",quantile="1"} `+exact+"\n") {
		t.Fatalf("quantile=1 disagrees with max:\n%s", out)
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("http.hits").Inc()
	srv := httptest.NewServer(r.Mux())
	defer srv.Close()
	for path, want := range map[string]string{
		"/metrics":    "http_hits 1",
		"/debug/vars": "memstats",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body := make([]byte, 1<<20)
		n, _ := resp.Body.Read(body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if !strings.Contains(string(body[:n]), want) {
			t.Fatalf("%s missing %q", path, want)
		}
	}
	// pprof index must answer (profiles themselves are exercised by
	// humans; here we only pin the wiring).
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pprof index: status %d", resp.StatusCode)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("bench.counter")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench.hist", 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}
