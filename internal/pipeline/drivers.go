package pipeline

import (
	"context"
	"sync/atomic"
	"time"

	"staub/internal/metrics"
	"staub/internal/smt"
	"staub/internal/solver"
	"staub/internal/status"
	"staub/internal/translate"
)

// Package-level refinement counters, declared on metrics.Process and so
// exported to /metrics and `staub-bench -v`. They accumulate across every
// incremental refinement session in the process.
var (
	refineSessions        = metrics.Process.Counter("staub_refine_sessions_total", nil)
	refineRounds          = metrics.Process.Counter("staub_refine_rounds_total", nil)
	refineClausesRetained = metrics.Process.Counter("staub_refine_clauses_retained_total", nil)
	refineGateHits        = metrics.Process.Counter("staub_refine_gate_hits_total", nil)
	refineGateMisses      = metrics.Process.Counter("staub_refine_gate_misses_total", nil)
	refineVarsReused      = metrics.Process.Counter("staub_refine_vars_reused_total", nil)
	refineWorkUnits       = metrics.Process.Counter("staub_refine_work_units_total", nil)
)

// RefineMetricsSnapshot reports the current refinement counter values
// (sessions, rounds, clauses retained, gate hits/misses, vars reused,
// solve work units) for the benchmark's per-layer report.
func RefineMetricsSnapshot() map[string]int64 {
	return map[string]int64{
		"sessions":         refineSessions.Value(),
		"rounds":           refineRounds.Value(),
		"clauses_retained": refineClausesRetained.Value(),
		"gate_hits":        refineGateHits.Value(),
		"gate_misses":      refineGateMisses.Value(),
		"vars_reused":      refineVarsReused.Value(),
		"work_units":       refineWorkUnits.Value(),
	}
}

// Package-level over-approximation counters, declared on metrics.Process.
// RunOverApprox derives them from the finished run's state, so the
// overapprox passes themselves stay metrics-free (and importable without
// a cycle).
var (
	overRuns           = metrics.Process.Counter("staub_overapprox_runs_total", nil)
	overLinearized     = metrics.Process.Counter("staub_overapprox_linearized_total", nil)
	overCertified      = metrics.Process.Counter("staub_overapprox_width_certified_total", nil)
	overLinearFallback = metrics.Process.Counter("staub_overapprox_linear_fallback_total", nil)
	overSoundUnsat     = metrics.Process.Counter("staub_overapprox_sound_unsat_total", nil)
	overVerifiedSat    = metrics.Process.Counter("staub_overapprox_verified_sat_total", nil)
	overReverts        = metrics.Process.Counter("staub_overapprox_reverts_total", nil)
)

// BackstopDeadline bounds the wall-clock time of a deterministic run:
// work budgets terminate the search deterministically, and the clock is
// kept only as a generous safety net against pathological slowdowns (a
// fired backstop sacrifices determinism to keep the process live).
func BackstopDeadline(timeout time.Duration) time.Time {
	backstop := 10 * timeout
	if backstop < 30*time.Second {
		backstop = 30 * time.Second
	}
	return time.Now().Add(backstop)
}

// SolveOriginal decides c with the unbounded solver under cfg's budget
// regime (Timeout, Profile, Seed and Deterministic; defaults applied): a
// deterministic run spends the work budget Timeout buys, with the clock
// only as backstop, and any other run gets Timeout as its wall-clock
// deadline. It is the portfolio's unbounded leg, the engine's solve job
// and the session's fallback. The optional interrupt aborts the solve.
func SolveOriginal(ctx context.Context, c *smt.Constraint, cfg Config, interrupt *atomic.Bool) solver.Result {
	cfg = cfg.WithDefaults()
	opts := solver.Options{
		Ctx:       ctx,
		Deadline:  time.Now().Add(cfg.Timeout),
		Interrupt: interrupt,
		Profile:   cfg.Profile,
		Seed:      cfg.Seed,
	}
	if cfg.Deterministic {
		opts.Deadline = BackstopDeadline(cfg.Timeout)
		opts.WorkBudget = solver.WorkBudgetFor(cfg.Timeout)
	}
	return solver.Solve(c, opts)
}

// Run executes the STAUB pipeline on c: transform, solve bounded, verify.
// The context cancels the run early; the optional interrupt aborts the
// bounded solve (used by the portfolio). With Config.RefineRounds set, a
// bounded-unsat outcome triggers width-doubling retries within the same
// deadline (Section 6.2).
func Run(ctx context.Context, c *smt.Constraint, cfg Config, interrupt *atomic.Bool) Result {
	cfg = cfg.WithDefaults()
	deadline := time.Now().Add(cfg.Timeout)
	if cfg.Deterministic {
		deadline = BackstopDeadline(cfg.Timeout)
	}
	if cfg.OverApprox {
		return RunOverApprox(ctx, c, cfg, deadline, interrupt)
	}
	if cfg.RefineRounds <= 0 || cfg.FixedWidth > 0 {
		return RunOnce(ctx, c, cfg, deadline, interrupt)
	}
	// Refinement only ever doubles bitvector widths, so the incremental
	// session applies exactly to the integer→BV fragment; everything else
	// (and the FreshRefine reference mode) takes the fresh per-round loop.
	if !cfg.FreshRefine {
		if kind, err := translate.Classify(c); err == nil && kind == translate.KindIntToBV {
			return RunIncremental(ctx, c, cfg, deadline, interrupt)
		}
	}
	return RunFresh(ctx, c, cfg, deadline, interrupt)
}

// RunOnce is a single transform-solve-verify round: the Figure 3 pipeline
// assembled from the registry per Figure3PassNames.
func RunOnce(ctx context.Context, c *smt.Constraint, cfg Config, deadline time.Time, interrupt *atomic.Bool) Result {
	st := NewState(ctx, c, cfg, deadline, interrupt)
	Exec(st, MustPasses(Figure3PassNames(st.Cfg)...))
	res := st.Res
	res.Total = res.TTrans + res.TPost + res.TCheck
	return *res
}

// maxRefineWidth is the widest bitvector sort refinement may reach for
// cfg: the configured limit, or 64 (machine-word semantics) when unset.
func maxRefineWidth(cfg Config) int {
	if cfg.Limits.MaxWidth > 0 {
		return cfg.Limits.MaxWidth
	}
	return 64
}

// RunFresh is the reference refinement loop: every round rebuilds the
// full transform-solve-verify pipeline from scratch at the widened width.
func RunFresh(ctx context.Context, c *smt.Constraint, cfg Config, deadline time.Time, interrupt *atomic.Bool) Result {
	res := RunOnce(ctx, c, cfg, deadline, interrupt)
	maxWidth := maxRefineWidth(cfg)
	width := res.Width
	for round := 1; round <= cfg.RefineRounds; round++ {
		if res.Outcome != OutcomeBoundedUnsat || width == 0 {
			break
		}
		width *= cfg.widthStep()
		if width > maxWidth {
			break
		}
		// Out of budget: virtual in deterministic mode, wall otherwise.
		if cfg.Deterministic {
			if res.Total >= cfg.Timeout {
				break
			}
		} else if !time.Now().Before(deadline) {
			break
		}
		retryCfg := cfg
		retryCfg.FixedWidth = width
		retry := RunOnce(ctx, c, retryCfg, deadline, interrupt)
		// Accumulate the cost of earlier rounds so measurements stay
		// honest about total work.
		retry.TTrans += res.TTrans
		retry.TPost += res.TPost
		retry.TCheck += res.TCheck
		retry.Total += res.Total
		retry.SolveWork += res.SolveWork
		retry.Refined = round
		if cfg.Trace {
			for i := range retry.Trace {
				retry.Trace[i].Round = round
			}
			retry.Trace = append(res.Trace, retry.Trace...)
		}
		res = retry
	}
	return res
}

// RunIncremental is the incremental refinement loop for integer→BV
// constraints: one bit-blasting session (and one SAT solver) lives across
// every width-doubling round, so each round re-encodes only what widening
// added and each solve starts from the learned clauses, variable
// activities and saved phases of the rounds before it. Bound inference is
// width-independent and runs once, up front. The deterministic cost model
// charges each round only the round's own new propagations.
//
// Round semantics mirror RunFresh exactly: round 0 translates at the
// inferred width with optional range hints; retries translate at the
// doubled fixed width without hints, each under the same per-round budget
// the fresh loop would get.
func RunIncremental(ctx context.Context, c *smt.Constraint, cfg Config, deadline time.Time, interrupt *atomic.Bool) Result {
	refineSessions.Inc()
	return RunSession(ctx, c, cfg, deadline, interrupt, solver.NewBVSession())
}

// RunSession is RunIncremental over a caller-owned bitvector session:
// the refinement loop encodes its rounds into sess instead of a fresh
// session, so a long-lived conversation (internal/session) can carry
// learned clauses, variable activities and the structural gate cache
// across successive check-sat commands, not just across the
// width-doubling rounds of one check. Each round still retires the
// previous round's assertions through its activation literal, so stale
// constraints from earlier checks can never leak into this one.
func RunSession(ctx context.Context, c *smt.Constraint, cfg Config, deadline time.Time, interrupt *atomic.Bool, sess *solver.BVSession) Result {
	cfg = cfg.WithDefaults()
	st := NewState(ctx, c, cfg, deadline, interrupt)
	// Memoized inference: abstract interpretation sees the original
	// constraint only, so its results hold for every round.
	Exec(st, MustPasses(PassInferBounds, PassRangeHints))
	res := st.Res
	if res.Outcome == OutcomeTransformFailed {
		// Unreachable in practice: Run only dispatches here after a
		// successful classification.
		res.Total = res.TTrans + res.TPost + res.TCheck
		return *res
	}
	width := st.Width
	maxWidth := maxRefineWidth(cfg)

	st.Session = sess
	res.InferredRoot = st.Root
	res.Incremental = true
	roundPasses := MustPasses(PassTranslate, PassBoundedSolve, PassVerifyModel)
	for round := 0; ; round++ {
		refineRounds.Inc()
		st.Round = round
		st.T0 = time.Now()
		st.Width = width
		if round > 0 {
			st.Hints = nil
		}
		workBefore := res.SolveWork
		Exec(st, roundPasses)
		refineWorkUnits.Add(res.SolveWork - workBefore)
		res.Refined = round
		res.Total = res.TTrans + res.TPost + res.TCheck
		if res.Outcome == OutcomeTransformFailed {
			// Mirror the pre-framework semantics: a failed widening round
			// returns without flushing the session reuse counters.
			return *res
		}
		res.Reuse = st.Session.Stats()

		if res.Outcome != OutcomeBoundedUnsat || round >= cfg.RefineRounds {
			break
		}
		next := width * cfg.widthStep()
		if width == 0 || next > maxWidth {
			break
		}
		// Out of budget: virtual in deterministic mode, wall otherwise.
		if cfg.Deterministic {
			if res.Total >= cfg.Timeout {
				break
			}
		} else if !time.Now().Before(deadline) {
			break
		}
		width = next
	}
	reuse := res.Reuse
	refineClausesRetained.Add(reuse.ClausesRetained)
	refineGateHits.Add(reuse.GateHits)
	refineGateMisses.Add(reuse.GateMisses)
	refineVarsReused.Add(reuse.VarsReused)
	return *res
}

// RunOverApprox is a single over-approximating round: linearize
// nonlinear multiplication, certify a-priori bounds for the linear
// fragment, then translate+solve+verify per OverApproxPassNames. The
// state starts at DirExact — every pass composes its own direction onto
// the chain, so the result's direction reflects exactly the
// transformations that actually ran: DirExact when a certified width made
// bounded solving complete, DirOver when the axiom-instantiated
// linearization (or the linear fallback over it) did the arbitrage, and
// a revert (transform-failed) when neither applies.
func RunOverApprox(ctx context.Context, c *smt.Constraint, cfg Config, deadline time.Time, interrupt *atomic.Bool) Result {
	overRuns.Inc()
	st := NewState(ctx, c, cfg, deadline, interrupt)
	st.Direction = DirExact
	Exec(st, MustPasses(OverApproxPassNames(st.Cfg)...))
	res := st.Res
	res.Total = res.TTrans + res.TPost + res.TCheck
	if st.Abstracted != nil {
		overLinearized.Inc()
	}
	if st.WidthCertified {
		overCertified.Inc()
	}
	if st.SkipTranslate {
		overLinearFallback.Inc()
	}
	switch {
	case res.Status == status.Unsat:
		overSoundUnsat.Inc()
	case res.Outcome == OutcomeVerified:
		overVerifiedSat.Inc()
	default:
		overReverts.Inc()
	}
	return *res
}

// Transform runs only the inference + translation stages (no solving).
func Transform(c *smt.Constraint, cfg Config) (*translate.Result, int, error) {
	st := NewState(context.Background(), c, cfg, time.Time{}, nil)
	Exec(st, MustPasses(PassInferBounds, PassRangeHints, PassTranslate))
	return st.Translated, st.Root, st.Err
}
