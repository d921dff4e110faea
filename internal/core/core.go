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
	// FromSTAUB reports whether a STAUB leg produced the verdict: the
	// sequential pipeline, the cube leg or the over leg.
	FromSTAUB bool
	// FromOver reports that the over-approximation leg produced the
	// verdict (implies FromSTAUB): either a sound unsat under an
	// exact/over chain or a verified sat.
	FromOver bool
	// Elapsed is the wall-clock time of the race.
	Elapsed time.Duration
	// Pipeline carries the details of the STAUB leg that won, or of the
	// sequential STAUB leg when the unbounded leg won or nobody decided.
	Pipeline PipelineResult
	// Degraded reports that the STAUB leg suffered a contained fault
	// (panic, stall, watchdog or budget exhaustion) and the portfolio fell
	// back to the unbounded leg's answer — the paper's no-slowdown
	// invariant surviving the fault.
	Degraded bool
}

// Package-level portfolio metrics, declared on metrics.Process: total
// races, races that degraded to the unbounded leg after a contained
// STAUB-leg fault, recovered leg panics, and the time decided races took
// to cancel their losing legs.
var (
	portfolioRuns     = metrics.Process.Counter("staub_portfolio_runs_total", nil)
	portfolioDegraded = metrics.Process.Counter("staub_portfolio_degraded_total", nil)
	portfolioPanics   = metrics.Process.Counter("staub_portfolio_leg_panics_total", nil)
	// portfolioCancel times each decided race's cancellation, from the
	// winning answer to the last losing leg's return. Its buckets resolve
	// the sub-millisecond stops the legs' interrupt polling aims for from
	// the tail of a leg that misses its interrupt.
	portfolioCancel = metrics.NewHistogram(
		10*time.Microsecond, 100*time.Microsecond, time.Millisecond,
		10*time.Millisecond, 100*time.Millisecond, time.Second)
)

// portfolioLegWork counts the work units each leg charged, by leg and by
// whether that leg won the race: the unbounded leg's solver work, a
// chain's SolveWork. The won="false" series are the work losing legs
// burn before they are cancelled.
var portfolioLegWork = map[string][2]*metrics.Counter{}

func init() {
	metrics.Process.RegisterHistogram("staub_portfolio_cancel_seconds", nil, portfolioCancel)
	for _, leg := range []string{"unbounded", "staub", "cube", "over"} {
		portfolioLegWork[leg] = [2]*metrics.Counter{
			metrics.Process.Counter("staub_portfolio_leg_work_total", metrics.Labels{"leg": leg, "won": "false"}),
			metrics.Process.Counter("staub_portfolio_leg_work_total", metrics.Labels{"leg": leg, "won": "true"}),
		}
	}
}

// leg is one row of the portfolio race.
type leg struct {
	name string
	// run decides the constraint, stopping soon after its interrupt flag
	// is raised. The unbounded leg fills only Status, Model and
	// SolveWork, its solver's work.
	run func(interrupt *atomic.Bool) PipelineResult
	// wins reports whether a verdict of this leg is definitive for the
	// original constraint, and so ends the race.
	wins func(status.Status) bool
}

// The first two rows of every race.
const (
	legUnbounded = iota
	legSequential
)

func decided(s status.Status) bool { return s != status.Unknown }
func onlySat(s status.Status) bool { return s == status.Sat }

// race runs every leg concurrently, each polling its own interrupt flag,
// and returns the legs' results in table order with the index of the
// winner (-1 when no leg decided): the first leg to return a verdict it
// wins with. The winner raises every leg's flag. A leg that raises only
// its own flag, as a pass watchdog or the work-budget ceiling does,
// cancels no other leg — the unbounded leg's no-slowdown guarantee rests
// on that. A panicking leg comes back as an unknown result with
// Fault == pipeline.FaultPanic and the race goes on without it.
func race(legs []leg) ([]PipelineResult, int) {
	flags := make([]atomic.Bool, len(legs))
	results := make([]PipelineResult, len(legs))
	done := make(chan int, len(legs))
	for i := range legs {
		go func() {
			defer func() {
				// Pass panics are contained inside the pipeline; this
				// boundary catches panics from the layers around it.
				if r := recover(); r != nil {
					portfolioPanics.Inc()
					results[i] = PipelineResult{Outcome: OutcomeError, Status: status.Unknown, Fault: pipeline.FaultPanic}
				}
				done <- i
			}()
			results[i] = legs[i].run(&flags[i])
		}()
	}
	winner := -1
	var decidedAt time.Time
	for range legs {
		i := <-done
		if winner < 0 && legs[i].wins(results[i].Status) {
			winner, decidedAt = i, time.Now()
			for j := range flags {
				flags[j].Store(true)
			}
		}
	}
	if winner >= 0 {
		portfolioCancel.Observe(time.Since(decidedAt))
	}
	return results, winner
}

// RunPortfolio races the original constraint (unbounded solver) against
// the STAUB pipeline, following the paper's portfolio methodology [68]:
// the first definitive answer wins and cancels the other legs.
// Cancelling the context aborts every leg. Each leg is one row of a
// table:
//
//   - unbounded: the unmodified solver on the original; wins with any
//     definitive verdict;
//   - sequential STAUB: the pipeline without cubing or
//     over-approximation; wins only with a verified sat;
//   - cube, with Config.CubeVars set: the pipeline with its bounded solve
//     replaced by cube-and-conquer; wins only with a verified sat, so
//     cubing can only add a way to win;
//   - over, with Config.OverApprox set: residue refutation of integer
//     equalities, linearized nonlinear multiplication and certified
//     a-priori bounds, so that its bounded-unsat is a sound unsat; wins
//     with any definitive verdict.
//
// Every leg runs behind a panic-isolation boundary: a leg that panics,
// stalls into its watchdog or exhausts its budget yields no definitive
// answer, and the portfolio degrades to the surviving legs' verdict with
// Degraded set instead of failing the request.
func RunPortfolio(ctx context.Context, c *smt.Constraint, cfg Config) PortfolioResult {
	cfg = cfg.WithDefaults()
	start := time.Now()
	portfolioRuns.Inc()
	legs := portfolioLegs(ctx, c, cfg)
	results, winner := race(legs)
	for i, l := range legs {
		won := 0
		if i == winner {
			won = 1
		}
		portfolioLegWork[l.name][won].Add(results[i].SolveWork)
	}
	out := PortfolioResult{Status: status.Unknown, Pipeline: results[legSequential]}
	if winner >= 0 {
		out.Status, out.Model = results[winner].Status, results[winner].Model
		out.FromSTAUB = winner != legUnbounded
		out.FromOver = legs[winner].name == "over"
		if out.FromSTAUB {
			out.Pipeline = results[winner]
		}
	}
	out.Elapsed = time.Since(start)
	// A faulted sequential STAUB leg means the verdict (definitive or
	// not) came from outside it: the no-slowdown contract degraded but
	// held.
	if out.Pipeline.Fault != "" && !out.FromSTAUB {
		out.Degraded = true
		portfolioDegraded.Inc()
	}
	return out
}

// portfolioLegs is RunPortfolio's table of legs for c under cfg, whose
// defaults are filled in.
func portfolioLegs(ctx context.Context, c *smt.Constraint, cfg Config) []leg {
	staub := func(legCfg Config) func(*atomic.Bool) PipelineResult {
		return func(interrupt *atomic.Bool) PipelineResult { return RunPipeline(ctx, c, legCfg, interrupt) }
	}
	// The sequential STAUB leg always runs without cubing or
	// over-approximation, so racing the extra legs preserves the two-leg
	// baseline behavior exactly.
	seq, cube, over := cfg, cfg, cfg
	seq.CubeVars, seq.OverApprox = 0, false
	cube.OverApprox = false
	over.CubeVars = 0
	legs := []leg{
		legUnbounded: {"unbounded", func(interrupt *atomic.Bool) PipelineResult {
			r := pipeline.SolveOriginal(ctx, c, cfg, interrupt)
			return PipelineResult{Status: r.Status, Model: r.Model, SolveWork: r.Work}
		}, decided},
		legSequential: {"staub", staub(seq), onlySat},
	}
	if cfg.CubeVars > 0 {
		legs = append(legs, leg{"cube", staub(cube), onlySat})
	}
	if cfg.OverApprox {
		legs = append(legs, leg{"over", staub(over), decided})
	}
	return legs
}
