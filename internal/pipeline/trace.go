package pipeline

import (
	"time"

	"staub/internal/metrics"
)

// Span is one pass execution in a run's trace: which stage ran, in which
// refinement round, how much deterministic work it charged, and how long
// it took on the wall clock and (in deterministic mode) in virtual time.
type Span struct {
	// Pass is the stage name (PassInferBounds, ...).
	Pass string
	// Round is the refinement round the pass ran in (0 outside loops).
	Round int
	// Work is the stage's deterministic work units (0 when a stage does
	// no budgeted work).
	Work int64
	// Wall is the measured wall-clock duration (non-deterministic).
	Wall time.Duration
	// Virtual is the deterministic virtual duration of Work (zero unless
	// the run is deterministic and the stage charged work).
	Virtual time.Duration
	// Note is a short stage-specific annotation ("width=12", "sat", ...).
	Note string
}

// passMetrics are the always-on per-pass aggregates: every pass execution
// pays three atomic updates here whether or not tracing is enabled.
type passMetrics struct {
	runs      *metrics.Counter
	work      *metrics.Counter
	seconds   *metrics.Histogram
	panics    *metrics.Counter
	watchdogs *metrics.Counter
	budgets   *metrics.Counter
}

// passLatencyBuckets resolve the sub-millisecond stages the default
// solve-latency buckets would lump together.
var passLatencyBuckets = []time.Duration{
	10 * time.Microsecond, 100 * time.Microsecond,
	time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond,
	time.Second, 10 * time.Second,
}

// newPassMetrics declares one pass's series on metrics.Process, labeled
// {pass=name}: staub_pass_runs_total, staub_pass_work_units_total, the
// staub_pass_seconds wall-time histogram and the three fault counters.
func newPassMetrics(name string) *passMetrics {
	labels := metrics.Labels{"pass": name}
	m := &passMetrics{
		runs:      metrics.Process.Counter("staub_pass_runs_total", labels),
		work:      metrics.Process.Counter("staub_pass_work_units_total", labels),
		seconds:   metrics.NewHistogram(passLatencyBuckets...),
		panics:    metrics.Process.Counter("staub_pass_panics_total", labels),
		watchdogs: metrics.Process.Counter("staub_pass_watchdog_total", labels),
		budgets:   metrics.Process.Counter("staub_pass_budget_faults_total", labels),
	}
	metrics.Process.RegisterHistogram("staub_pass_seconds", labels, m.seconds)
	return m
}

func aggFor(name string) *passMetrics {
	regMu.RLock()
	defer regMu.RUnlock()
	return passAgg[name]
}
