// Package core implements STAUB itself: the four-step theory-arbitrage
// pipeline of Figure 3 in the paper (sort selection and bound inference by
// abstract interpretation, constraint translation, bounded solving, and
// model verification), plus the two-core portfolio that races the pipeline
// against an unmodified solver so no constraint ever gets slower
// (Section 4.4).
//
// Since the staged-pass refactor the pipeline itself lives in
// internal/pipeline: core is a thin assembly that re-exports the unified
// Config/Outcome/Result taxonomy under its historical names and keeps the
// portfolio, whose racing logic is orthogonal to the pass framework.
package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	// Registers the cube-solve pass: every binary that assembles
	// pipelines goes through core, so linking core guarantees the pass
	// is in the registry before any Config.CubeVars run resolves it.
	_ "staub/internal/cube"
	"staub/internal/eval"
	"staub/internal/metrics"
	// Registers the over-approximating passes (linearize-nia,
	// infer-apriori-bounds) the same way, so Config.OverApprox runs
	// resolve them in any binary that links core.
	_ "staub/internal/overapprox"
	"staub/internal/pipeline"
	"staub/internal/smt"
	"staub/internal/solver"
	"staub/internal/status"
	"staub/internal/translate"
)

// Config controls a STAUB run (alias of the pass framework's Config).
type Config = pipeline.Config

// Outcome classifies how the pipeline ended (Figure 6 of the paper);
// alias of the unified pipeline taxonomy.
type Outcome = pipeline.Outcome

// Figure 6 outcomes, re-exported from the unified taxonomy.
const (
	OutcomeVerified           = pipeline.OutcomeVerified
	OutcomeBoundedUnsat       = pipeline.OutcomeBoundedUnsat
	OutcomeSemanticDifference = pipeline.OutcomeSemanticDifference
	OutcomeBoundedUnknown     = pipeline.OutcomeBoundedUnknown
	OutcomeTransformFailed    = pipeline.OutcomeTransformFailed
	// OutcomeError is a contained fault (recovered panic, watchdog
	// cancellation, budget or transient fault); see pipeline.OutcomeError.
	OutcomeError = pipeline.OutcomeError
)

// PipelineResult is a completed STAUB pipeline run (without the portfolio
// leg); alias of the unified pipeline Result.
type PipelineResult = pipeline.Result

// Transform runs only the inference + translation steps (no solving).
func Transform(c *smt.Constraint, cfg Config) (*translate.Result, int, error) {
	return pipeline.Transform(c, cfg)
}

// FixedFPSort maps a total bit width to a floating-point sort for the
// fixed-width ablation (e.g. 16 → Float16).
func FixedFPSort(width int) smt.Sort {
	return pipeline.FixedFPSort(width)
}

// RegisterRefineMetrics exposes the incremental-refinement counters
// through reg.
func RegisterRefineMetrics(reg *metrics.Registry) {
	pipeline.RegisterRefineMetrics(reg)
}

// RegisterPassMetrics exposes the per-stage pipeline aggregates (runs,
// work units, wall-time histograms, one series per pass) through reg.
func RegisterPassMetrics(reg *metrics.Registry) {
	pipeline.RegisterPassMetrics(reg)
}

// RegisterOverApproxMetrics exposes the over-approximation leg counters
// (runs, linearizations, certified widths, linear fallbacks, sound
// unsats, verified sats, reverts) through reg.
func RegisterOverApproxMetrics(reg *metrics.Registry) {
	pipeline.RegisterOverApproxMetrics(reg)
}

// OverApproxMetricsSnapshot reports the over-approximation counters for
// CLI summaries and tests.
func OverApproxMetricsSnapshot() map[string]int64 {
	return pipeline.OverApproxMetricsSnapshot()
}

// RefineMetricsSnapshot reports the current refinement counter values
// (sessions, rounds, clauses retained, gate hits/misses, vars reused,
// solve work units) for CLI summaries.
func RefineMetricsSnapshot() map[string]int64 {
	return pipeline.RefineMetricsSnapshot()
}

// RunPipeline executes the STAUB pipeline on c: transform, solve bounded,
// verify. The context cancels the run early; the optional interrupt aborts
// the bounded solve (used by the portfolio). With Config.RefineRounds set,
// a bounded-unsat outcome triggers width-doubling retries within the same
// deadline (Section 6.2).
func RunPipeline(ctx context.Context, c *smt.Constraint, cfg Config, interrupt *atomic.Bool) PipelineResult {
	return pipeline.Run(ctx, c, cfg, interrupt)
}

// PortfolioResult is the outcome of racing STAUB against the unmodified
// solver.
type PortfolioResult struct {
	// Status and Model are the combined verdict.
	Status status.Status
	Model  eval.Assignment
	// FromSTAUB reports whether a STAUB leg produced the verdict (the
	// sequential pipeline, or the cube leg — see FromCube).
	FromSTAUB bool
	// FromCube reports that the cube-and-conquer leg produced the
	// verdict (implies FromSTAUB).
	FromCube bool
	// FromOver reports that the over-approximation leg produced the
	// verdict (implies FromSTAUB): either a sound unsat under an
	// exact/over chain or a verified sat.
	FromOver bool
	// Elapsed is the wall-clock time of the race.
	Elapsed time.Duration
	// Pipeline carries the STAUB leg details.
	Pipeline PipelineResult
	// Degraded reports that the STAUB leg suffered a contained fault
	// (panic, stall, watchdog or budget exhaustion) and the portfolio fell
	// back to the unbounded leg's answer — the paper's no-slowdown
	// invariant surviving the fault.
	Degraded bool
}

// Package-level portfolio metrics, exported through
// RegisterPortfolioMetrics.
var (
	portfolioRuns     metrics.Counter
	portfolioDegraded metrics.Counter
	portfolioPanics   metrics.Counter
	// portfolioCancel times each decided race's cancellation, from the
	// winning answer to the last losing leg's return. Its buckets resolve
	// the sub-millisecond stops the legs' interrupt polling aims for from
	// the tail of a leg that misses its interrupt.
	portfolioCancel = metrics.NewHistogram(
		10*time.Microsecond, 100*time.Microsecond, time.Millisecond,
		10*time.Millisecond, 100*time.Millisecond, time.Second)
)

// RegisterPortfolioMetrics exposes the portfolio race metrics through
// reg: total races, races that degraded to the unbounded leg after a
// contained STAUB-leg fault, recovered leg panics, and the time decided
// races took to cancel their losing legs.
func RegisterPortfolioMetrics(reg *metrics.Registry) {
	reg.RegisterCounter("staub_portfolio_runs_total", nil, &portfolioRuns)
	reg.RegisterCounter("staub_portfolio_degraded_total", nil, &portfolioDegraded)
	reg.RegisterCounter("staub_portfolio_leg_panics_total", nil, &portfolioPanics)
	reg.RegisterHistogram("staub_portfolio_cancel_seconds", nil, portfolioCancel)
}

// PortfolioMetricsSnapshot reports the portfolio counters (runs,
// degraded, leg panics) for CLI summaries and tests.
func PortfolioMetricsSnapshot() map[string]int64 {
	return map[string]int64{
		"runs":       portfolioRuns.Value(),
		"degraded":   portfolioDegraded.Value(),
		"leg_panics": portfolioPanics.Value(),
	}
}

// RunPortfolio races the original constraint (unbounded solver) against
// the STAUB pipeline, following the paper's portfolio methodology [68]:
// the first definitive answer wins and cancels the other legs.
// Cancelling the context aborts every leg. With Config.CubeVars set a
// third leg joins the race — the STAUB pipeline with its bounded solve
// replaced by cube-and-conquer — next to the sequential pipeline, so
// cubing can only add a way to win, never slow the baseline race down.
// With Config.OverApprox set, an over-approximation leg joins too: it
// linearizes nonlinear multiplication and certifies a-priori bounds so
// that its bounded-unsat is a sound unsat — the only leg besides the
// unbounded solver that can ever win with an unsat verdict.
//
// Every leg runs behind a panic-isolation boundary: a leg that panics,
// stalls into its watchdog or exhausts its budget yields no definitive
// answer, and the portfolio degrades to the surviving legs' verdict with
// Degraded set instead of failing the request.
func RunPortfolio(ctx context.Context, c *smt.Constraint, cfg Config) PortfolioResult {
	cfg = cfg.WithDefaults()
	start := time.Now()
	portfolioRuns.Inc()

	var cancelOrig, cancelStaub, cancelCube, cancelOver atomic.Bool
	cancelAll := func() {
		cancelOrig.Store(true)
		cancelStaub.Store(true)
		cancelCube.Store(true)
		cancelOver.Store(true)
	}
	type leg struct {
		fromStaub bool
		fromCube  bool
		fromOver  bool
		status    status.Status
		model     eval.Assignment
		pipeline  PipelineResult
		ok        bool // definitive answer
	}
	legs := 2
	if cfg.CubeVars > 0 {
		legs++
	}
	if cfg.OverApprox {
		legs++
	}
	results := make(chan leg, legs)
	var wg sync.WaitGroup
	wg.Add(legs)

	origDeadline := time.Now().Add(cfg.Timeout)
	origOpts := solver.Options{
		Ctx:       ctx,
		Deadline:  origDeadline,
		Interrupt: &cancelOrig,
		Profile:   cfg.Profile,
		Seed:      cfg.Seed,
	}
	if cfg.Deterministic {
		origOpts.Deadline = pipeline.BackstopDeadline(cfg.Timeout)
		origOpts.WorkBudget = solver.WorkBudgetFor(cfg.Timeout)
	}
	go func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				portfolioPanics.Inc()
				results <- leg{status: status.Unknown}
			}
		}()
		r := solver.Solve(c, origOpts)
		results <- leg{status: r.Status, model: r.Model, ok: r.Status != status.Unknown}
	}()
	// The sequential STAUB leg always runs without cubing or
	// over-approximation; when those are requested they are extra legs'
	// jobs, and racing all of them preserves the two-leg baseline
	// behavior exactly.
	seqCfg := cfg
	seqCfg.CubeVars = 0
	seqCfg.OverApprox = false
	go func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				// Pass panics are contained inside the pipeline; this
				// boundary catches panics from the driver layers around it,
				// so the race still gets a (faulted) STAUB leg.
				portfolioPanics.Inc()
				results <- leg{fromStaub: true, status: status.Unknown, pipeline: PipelineResult{
					Outcome: OutcomeError,
					Status:  status.Unknown,
					Fault:   pipeline.FaultPanic,
				}}
			}
		}()
		p := RunPipeline(ctx, c, seqCfg, &cancelStaub)
		// Only a verified sat is definitive for the original constraint.
		results <- leg{fromStaub: true, status: p.Status, model: p.Model, pipeline: p, ok: p.Status == status.Sat}
	}()
	if cfg.CubeVars > 0 {
		cubeCfg := cfg
		cubeCfg.OverApprox = false
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					portfolioPanics.Inc()
					results <- leg{fromStaub: true, fromCube: true, status: status.Unknown, pipeline: PipelineResult{
						Outcome: OutcomeError,
						Status:  status.Unknown,
						Fault:   pipeline.FaultPanic,
					}}
				}
			}()
			p := RunPipeline(ctx, c, cubeCfg, &cancelCube)
			results <- leg{fromStaub: true, fromCube: true, status: p.Status, model: p.Model, pipeline: p, ok: p.Status == status.Sat}
		}()
	}
	if cfg.OverApprox {
		overCfg := cfg
		overCfg.CubeVars = 0
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					portfolioPanics.Inc()
					results <- leg{fromStaub: true, fromOver: true, status: status.Unknown, pipeline: PipelineResult{
						Outcome: OutcomeError,
						Status:  status.Unknown,
						Fault:   pipeline.FaultPanic,
					}}
				}
			}()
			p := RunPipeline(ctx, c, overCfg, &cancelOver)
			// Unlike the under-approximating legs, a sound unsat is also
			// definitive here: the direction lattice already vetted it.
			results <- leg{fromStaub: true, fromOver: true, status: p.Status, model: p.Model, pipeline: p, ok: p.Status != status.Unknown}
		}()
	}

	var out PortfolioResult
	var seqPipe, cubePipe, overPipe PipelineResult
	var decidedAt time.Time
	out.Status = status.Unknown
	for i := 0; i < legs; i++ {
		l := <-results
		switch {
		case l.fromCube:
			cubePipe = l.pipeline
		case l.fromOver:
			overPipe = l.pipeline
		case l.fromStaub:
			seqPipe = l.pipeline
		}
		if l.ok && out.Status == status.Unknown {
			out.Status = l.status
			out.Model = l.model
			out.FromSTAUB = l.fromStaub
			out.FromCube = l.fromCube
			out.FromOver = l.fromOver
			// Cancel the other legs.
			decidedAt = time.Now()
			cancelAll()
		}
	}
	if !decidedAt.IsZero() {
		portfolioCancel.Observe(time.Since(decidedAt))
	}
	wg.Wait()
	out.Pipeline = seqPipe
	switch {
	case out.FromCube:
		out.Pipeline = cubePipe
	case out.FromOver:
		out.Pipeline = overPipe
	}
	out.Elapsed = time.Since(start)
	// A faulted sequential STAUB leg means the verdict (definitive or
	// not) came from outside it: the no-slowdown contract degraded but
	// held.
	if seqPipe.Fault != "" && !out.FromSTAUB {
		out.Degraded = true
		portfolioDegraded.Inc()
	}
	return out
}
