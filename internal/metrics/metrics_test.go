package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Inc()
	g.Add(10)
	g.Dec()
	if got := g.Value(); got != 10 {
		t.Errorf("gauge = %d, want 10", got)
	}
	g.Set(-3)
	if got := g.Value(); got != -3 {
		t.Errorf("gauge after Set = %d, want -3", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(10*time.Millisecond, time.Millisecond, 100*time.Millisecond) // unsorted on purpose
	h.Observe(500 * time.Microsecond)                                              // ≤ 1ms
	h.Observe(time.Millisecond)                                                    // ≤ 1ms (bounds are inclusive)
	h.Observe(7 * time.Millisecond)                                                // ≤ 10ms
	h.Observe(time.Second)                                                         // +Inf
	if got := h.Count(); got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
	want := 500*time.Microsecond + time.Millisecond + 7*time.Millisecond + time.Second
	if got := h.Sum(); got != want {
		t.Errorf("sum = %v, want %v", got, want)
	}
	var b strings.Builder
	if err := h.writeText(&b, "m", ""); err != nil {
		t.Fatal(err)
	}
	wantText := `m_bucket{le="0.001"} 2
m_bucket{le="0.01"} 3
m_bucket{le="0.1"} 3
m_bucket{le="+Inf"} 4
m_sum 1.0085
m_count 4
`
	if b.String() != wantText {
		t.Errorf("exposition:\n%s\nwant:\n%s", b.String(), wantText)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", Labels{"k": "v"})
	b := r.Counter("x_total", Labels{"k": "v"})
	if a != b {
		t.Error("same name+labels returned distinct counters")
	}
	if c := r.Counter("x_total", Labels{"k": "w"}); c == a {
		t.Error("distinct labels returned the same counter")
	}
}

func TestRegistryAdoptsExisting(t *testing.T) {
	r := NewRegistry()
	own := NewCounter()
	own.Add(7)
	r.RegisterCounter("cache_hits_total", nil, own)
	own.Inc()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "cache_hits_total 8") {
		t.Errorf("adopted counter not exposed:\n%s", b.String())
	}
}

func TestWriteTextDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", nil).Inc()
	r.Gauge("a_depth", nil).Set(2)
	r.Counter("b_total", Labels{"outcome": "verified"}).Add(3)
	r.Counter("b_total", Labels{"outcome": "bounded-unsat"}).Add(1)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE a_depth gauge
a_depth 2
# TYPE b_total counter
b_total 1
b_total{outcome="bounded-unsat"} 1
b_total{outcome="verified"} 3
`
	if b.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", nil).Add(2)
	r.Gauge("g", nil).Set(-1)
	r.Histogram("h_seconds").Observe(2 * time.Second)
	snap := r.Snapshot()
	if snap["c_total"] != int64(2) || snap["g"] != int64(-1) {
		t.Errorf("snapshot counters/gauges wrong: %v", snap)
	}
	if snap["h_seconds_count"] != int64(1) || snap["h_seconds_sum_seconds"] != 2.0 {
		t.Errorf("snapshot histogram wrong: %v", snap)
	}
}

// TestConcurrentUse exercises every primitive from many goroutines; the
// race detector (make check) is the assertion.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Counter("c_total", Labels{"w": "x"}).Inc()
				r.Gauge("g", nil).Add(1)
				r.Histogram("h_seconds").Observe(time.Duration(j) * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total", Labels{"w": "x"}).Value(); got != 1600 {
		t.Errorf("concurrent counter = %d, want 1600", got)
	}
	if got := r.Histogram("h_seconds").Count(); got != 1600 {
		t.Errorf("concurrent histogram count = %d, want 1600", got)
	}
}

func TestLabeledHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram(time.Millisecond, 10*time.Millisecond)
	r.RegisterHistogram("pass_seconds", Labels{"pass": "translate"}, h)
	h.Observe(500 * time.Microsecond)
	h.Observe(time.Second)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`pass_seconds_bucket{pass="translate",le="0.001"} 1`,
		`pass_seconds_bucket{pass="translate",le="+Inf"} 2`,
		`pass_seconds_sum{pass="translate"} 1.0005`,
		`pass_seconds_count{pass="translate"} 2`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("missing %q in:\n%s", want, b.String())
		}
	}
}

// TestProcessSeriesJoinEveryRegistry: a series declared on Process after
// a registry was built shows up in that registry's exposition and
// snapshot, sorted among the registry's own series, and Process renders
// its own series once.
func TestProcessSeriesJoinEveryRegistry(t *testing.T) {
	saved := Process
	Process = NewRegistry()
	t.Cleanup(func() { Process = saved })

	r := NewRegistry()
	r.Counter("b_total", nil).Inc()
	Process.Counter("a_total", nil).Add(2)
	Process.Counter("c_total", Labels{"k": "v"}).Add(3)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE a_total counter
a_total 2
# TYPE b_total counter
b_total 1
# TYPE c_total counter
c_total{k="v"} 3
`
	if b.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
	snap := r.Snapshot()
	if snap["a_total"] != int64(2) || snap["b_total"] != int64(1) || snap[`c_total{k="v"}`] != int64(3) {
		t.Errorf("snapshot = %v, want a_total 2, b_total 1, c_total{k=\"v\"} 3", snap)
	}

	b.Reset()
	if err := Process.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if want := "# TYPE a_total counter\na_total 2\n# TYPE c_total counter\nc_total{k=\"v\"} 3\n"; b.String() != want {
		t.Errorf("Process exposition:\n%s\nwant:\n%s", b.String(), want)
	}
}
