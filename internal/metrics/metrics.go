// Package metrics is the repository's dependency-free instrumentation
// layer: atomic counters, gauges and duration histograms, collected in a
// Registry that renders a Prometheus-style text exposition (served by
// staub-serve's GET /metrics) and a flat JSON-friendly snapshot (GET
// /stats). The same primitives back the engine's cache statistics, so the
// CLIs and the server count through one code path.
//
// All metric types have useful zero values and are safe for concurrent
// use; none of them allocate on the hot path.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Int64 }

// NewCounter returns a fresh counter (the zero value is also ready to use).
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value reports the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value that can move in both directions.
type Gauge struct{ v atomic.Int64 }

// NewGauge returns a fresh gauge (the zero value is also ready to use).
func NewGauge() *Gauge { return &Gauge{} }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value reports the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefaultLatencyBuckets are the histogram bounds used for solve and
// request latencies, spanning sub-millisecond cache hits to multi-second
// NIA searches.
var DefaultLatencyBuckets = []time.Duration{
	time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond,
	50 * time.Millisecond, 100 * time.Millisecond, 500 * time.Millisecond,
	time.Second, 5 * time.Second, 10 * time.Second,
}

// Histogram tallies durations into fixed cumulative buckets.
type Histogram struct {
	bounds []time.Duration // sorted upper bounds; an implicit +Inf follows
	counts []atomic.Int64  // len(bounds)+1
	sum    atomic.Int64    // nanoseconds
	total  atomic.Int64
}

// NewHistogram returns a histogram over the given upper bounds (sorted
// ascending; nil selects DefaultLatencyBuckets).
func NewHistogram(bounds ...time.Duration) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	b := make([]time.Duration, len(bounds))
	copy(b, bounds)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	i := sort.Search(len(h.bounds), func(i int) bool { return d <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
	h.total.Add(1)
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Sum reports the total of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Labels name a metric series; they render sorted by key.
type Labels map[string]string

func (l Labels) render() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%q", k, l[k])
	}
	return "{" + strings.Join(parts, ",") + "}"
}

type seriesKind int

const (
	kindCounter seriesKind = iota
	kindGauge
	kindHistogram
)

type series struct {
	name   string // base metric name
	labels string // rendered label set ("" for none)
	kind   seriesKind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry is a named collection of metric series. Get-or-create lookups
// make wiring cheap: the first Counter("x", nil) allocates, later ones
// return the same counter. Existing metrics owned elsewhere (the engine
// cache's counters, for instance) can be adopted with the Register*
// variants so one series is visible both to its owner and to /metrics.
type Registry struct {
	mu     sync.Mutex
	series map[string]*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{series: map[string]*series{}} }

func (r *Registry) lookup(name string, labels Labels, kind seriesKind) *series {
	key := name + labels.render()
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[key]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("metrics: %s registered twice with different types", key))
		}
		return s
	}
	s := &series{name: name, labels: labels.render(), kind: kind}
	switch kind {
	case kindCounter:
		s.c = NewCounter()
	case kindGauge:
		s.g = NewGauge()
	case kindHistogram:
		s.h = NewHistogram()
	}
	r.series[key] = s
	return s
}

// Counter returns the counter series for name+labels, creating it if new.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	return r.lookup(name, labels, kindCounter).c
}

// Gauge returns the gauge series for name+labels, creating it if new.
func (r *Registry) Gauge(name string, labels Labels) *Gauge {
	return r.lookup(name, labels, kindGauge).g
}

// Histogram returns the histogram series for name, creating it (with
// DefaultLatencyBuckets) if new. Histogram series carry no labels.
func (r *Registry) Histogram(name string) *Histogram {
	return r.lookup(name, nil, kindHistogram).h
}

// RegisterCounter adopts an existing counter under name+labels, replacing
// any series previously registered there.
func (r *Registry) RegisterCounter(name string, labels Labels, c *Counter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.series[name+labels.render()] = &series{name: name, labels: labels.render(), kind: kindCounter, c: c}
}

// RegisterGauge adopts an existing gauge under name+labels.
func (r *Registry) RegisterGauge(name string, labels Labels, g *Gauge) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.series[name+labels.render()] = &series{name: name, labels: labels.render(), kind: kindGauge, g: g}
}

// RegisterHistogram adopts an existing histogram under name+labels; the
// label set is merged into each rendered _bucket/_sum/_count series.
func (r *Registry) RegisterHistogram(name string, labels Labels, h *Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.series[name+labels.render()] = &series{name: name, labels: labels.render(), kind: kindHistogram, h: h}
}

// sorted returns all series ordered by (name, labels) for deterministic
// output.
func (r *Registry) sorted() []*series {
	r.mu.Lock()
	out := make([]*series, 0, len(r.series))
	for _, s := range r.series {
		out = append(out, s)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels < out[j].labels
	})
	return out
}

func (k seriesKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// WriteText renders the Prometheus text exposition format: a # TYPE line
// per metric name followed by one line per series, histograms expanded
// into cumulative _bucket/_sum/_count series.
func (r *Registry) WriteText(w io.Writer) error {
	lastType := ""
	for _, s := range r.sorted() {
		if s.name != lastType {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.name, s.kind); err != nil {
				return err
			}
			lastType = s.name
		}
		var err error
		switch s.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%s%s %d\n", s.name, s.labels, s.c.Value())
		case kindGauge:
			_, err = fmt.Fprintf(w, "%s%s %d\n", s.name, s.labels, s.g.Value())
		case kindHistogram:
			err = s.h.writeText(w, s.name, s.labels)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (h *Histogram) writeText(w io.Writer, name, labels string) error {
	// The le label joins any series labels: {le="x"} alone, or
	// {pass="translate",le="x"} when the series is labeled.
	bucket := func(le string) string {
		if labels == "" {
			return fmt.Sprintf("{le=%q}", le)
		}
		return fmt.Sprintf("%s,le=%q}", labels[:len(labels)-1], le)
	}
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucket(formatSeconds(b)), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	_, err := fmt.Fprintf(w, "%s_bucket%s %d\n%s_sum%s %g\n%s_count%s %d\n",
		name, bucket("+Inf"), cum, name, labels, h.Sum().Seconds(), name, labels, h.Count())
	return err
}

func formatSeconds(d time.Duration) string {
	return fmt.Sprintf("%g", d.Seconds())
}

// Snapshot returns a flat map of every series to its current value,
// suitable for JSON encoding: counters and gauges map to their integer
// value, histograms contribute <name>_count and <name>_sum_seconds.
func (r *Registry) Snapshot() map[string]any {
	out := map[string]any{}
	for _, s := range r.sorted() {
		key := s.name + s.labels
		switch s.kind {
		case kindCounter:
			out[key] = s.c.Value()
		case kindGauge:
			out[key] = s.g.Value()
		case kindHistogram:
			out[key+"_count"] = s.h.Count()
			out[key+"_sum_seconds"] = s.h.Sum().Seconds()
		}
	}
	return out
}
