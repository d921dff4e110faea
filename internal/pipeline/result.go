package pipeline

import (
	"fmt"
	"time"

	"staub/internal/bitblast"
	"staub/internal/eval"
	"staub/internal/smt"
	"staub/internal/status"
)

// Outcome classifies how a pipeline run ended. It unifies the Figure 6
// taxonomy of the STAUB pipeline (verified, bounded-unsat,
// semantic-difference, bounded-unknown, transform-failed) with the §6.4
// width-reduction pipeline's outcomes (narrow-unsat, no-reduction,
// unknown): both pipelines end the same three ways — a verified model, an
// unsat approximation, or a revert — and differ only in how the unsat and
// give-up cases are named.
type Outcome int

// Pipeline outcomes. String renderings are stable: tables, golden files
// and the staub-serve wire format all print these names.
const (
	// OutcomeVerified: the bounded (or narrowed) constraint was sat and
	// its model, mapped back, satisfies the original — a definitive sat.
	OutcomeVerified Outcome = iota
	// OutcomeBoundedUnsat: the bounded constraint was unsat; insufficient
	// bounds are indistinguishable from real unsatisfiability, so STAUB
	// reverts to the original constraint.
	OutcomeBoundedUnsat
	// OutcomeSemanticDifference: the bounded model does not satisfy the
	// original (overflow/rounding artifact); revert.
	OutcomeSemanticDifference
	// OutcomeBoundedUnknown: the bounded solve hit its budget; revert.
	OutcomeBoundedUnknown
	// OutcomeTransformFailed: the constraint is outside the supported
	// fragment (mixed theories, unsupported operators); revert.
	OutcomeTransformFailed
	// OutcomeNarrowUnsat: the width-reduced constraint was unsat; revert
	// (the reduction pipeline's spelling of bounded-unsat).
	OutcomeNarrowUnsat
	// OutcomeNoReduction: width inference found no narrower width.
	OutcomeNoReduction
	// OutcomeUnknown: budget exhausted or unsupported input in the
	// reduction pipeline; revert.
	OutcomeUnknown
	// OutcomeError: a pass fault was contained — a recovered panic, a
	// watchdog cancellation, a budget-ceiling violation or an injected
	// transient — and the run degraded instead of crashing. Result.Fault
	// and Result.FaultPass classify the containment.
	OutcomeError
)

// Direction is the approximation direction of a pipeline run: the
// relationship between the solution set of the constraint actually solved
// and the solution set of the original. It decides which verdicts are
// sound without verification (SoundStatus).
type Direction int

// Approximation directions. The zero value is DirUnder — the historical
// STAUB semantics — so every assembly that predates the lattice keeps its
// behavior without naming a direction.
const (
	// DirUnder: the solved constraint admits a subset of the original's
	// solutions (int→BV with overflow guards, width narrowing). Sat models are candidates requiring verification; unsat says
	// nothing about the original. Real→FP also runs under this direction:
	// rounding both adds and removes solutions, so FP is not a true
	// under-approximation, but DirUnder's verdict semantics — trust
	// nothing without verification — are exactly what it needs.
	DirUnder Direction = iota
	// DirOver: the solved constraint admits a superset of the original's
	// solutions (linearized nonlinear products with axiom instantiation,
	// integer equalities reduced mod m). Unsat is sound for the original;
	// sat models are candidates requiring verification.
	DirOver
	// DirExact: the solved constraint is equisatisfiable with the
	// original (a-priori certified widths over the exact linear
	// fragment). Both verdicts are sound; models are still verified
	// before being reported, as defense in depth.
	DirExact
)

func (d Direction) String() string {
	switch d {
	case DirOver:
		return "over"
	case DirExact:
		return "exact"
	default:
		return "under"
	}
}

// ComposeDirection combines the directions of two approximation steps
// applied in sequence. Exact is the identity; equal directions compose to
// themselves; mixing Under and Over yields Under, whose soundness profile
// claims the least (sat needs verification, unsat proves nothing) — the
// safe join for a chain whose net direction is indeterminate.
func ComposeDirection(a, b Direction) Direction {
	switch {
	case a == DirExact:
		return b
	case b == DirExact:
		return a
	case a == b:
		return a
	default:
		return DirUnder
	}
}

// SoundStatus derives the verdict a run may soundly report for the
// ORIGINAL constraint from its outcome and approximation direction.
// A verified model is sat under every direction (verification is against
// the original). An unsat approximation (bounded-unsat, narrow-unsat) is
// sound exactly when the solved constraint over-approximates — every real
// solution would survive into it — or is exact; under an
// under-approximation it proves nothing. Every other outcome is a revert.
func SoundStatus(o Outcome, d Direction) status.Status {
	switch o {
	case OutcomeVerified:
		return status.Sat
	case OutcomeBoundedUnsat, OutcomeNarrowUnsat:
		if d == DirOver || d == DirExact {
			return status.Unsat
		}
	}
	return status.Unknown
}

// Fault classifications recorded in Result.Fault when a run ends with a
// contained failure. Empty Fault means a clean run.
const (
	// FaultPanic: a pass panicked and the panic was recovered;
	// Result.PanicStack holds the captured stack.
	FaultPanic = "panic"
	// FaultWatchdog: the per-pass watchdog cancelled a pass that exceeded
	// its share of the request timeout.
	FaultWatchdog = "watchdog"
	// FaultBudget: a pass reported work beyond the run's work-budget
	// ceiling (budget blowup).
	FaultBudget = "budget"
	// FaultStall: an injected stall wedged a pass until cancelled.
	FaultStall = "stall"
	// FaultTransient: a retryable transient error was injected; callers
	// may retry the whole request once.
	FaultTransient = "transient"
)

func (o Outcome) String() string {
	switch o {
	case OutcomeVerified:
		return "verified"
	case OutcomeBoundedUnsat:
		return "bounded-unsat"
	case OutcomeSemanticDifference:
		return "semantic-difference"
	case OutcomeBoundedUnknown:
		return "bounded-unknown"
	case OutcomeTransformFailed:
		return "transform-failed"
	case OutcomeNarrowUnsat:
		return "narrow-unsat"
	case OutcomeNoReduction:
		return "no-reduction"
	case OutcomeError:
		return "error"
	default:
		return "unknown"
	}
}

// Result is a completed pipeline run — the one result taxonomy shared by
// the STAUB pipeline (core), the §6.2 refinement loops and the §6.4
// width-reduction pipeline (reduce). Fields not meaningful for a given
// assembly stay zero.
type Result struct {
	// Outcome classifies the run.
	Outcome Outcome
	// Status is the verdict sound for the ORIGINAL constraint, derived
	// from the outcome and the approximation direction by SoundStatus:
	// Sat when a model verified, Unsat when an over-approximating or
	// exact run proved its constraint unsat, Unknown otherwise.
	Status status.Status
	// Direction is the approximation direction the run ended with
	// (composed across its passes). The historical assemblies all run
	// DirUnder; the over-approximating assembly reports DirOver, or
	// DirExact when a-priori bounds certified a complete width.
	Direction Direction
	// Model is a verified model of the ORIGINAL constraint.
	Model eval.Assignment
	// TTrans, TPost and TCheck are the paper's cost components:
	// translation (including inference), bounded solving, and
	// verification.
	TTrans, TPost, TCheck time.Duration
	// Total is TTrans + TPost + TCheck for the STAUB assemblies, and the
	// wall-clock run time for the reduction assembly.
	Total time.Duration
	// Width is the bitvector width used (integer constraints).
	Width int
	// FPSort is the floating-point sort used (real constraints).
	FPSort smt.Sort
	// InferredRoot is the raw abstract-interpretation result before
	// clamping (integer constraints).
	InferredRoot int
	// Refined counts bound-refinement rounds taken (Section 6.2); the
	// reported Width is the final round's width.
	Refined int
	// Incremental reports that refinement ran on a persistent incremental
	// bit-blasting session instead of fresh per-round pipelines.
	Incremental bool
	// SolveWork is the total bounded-solve work in deterministic work
	// units, summed across refinement rounds. In the incremental loop each
	// round charges only its own new propagations.
	SolveWork int64
	// Cubes is the number of assumption cubes the cube-solve pass raced
	// (zero when the sequential solve ran).
	Cubes int
	// Reuse carries the incremental session's reuse counters (only
	// meaningful when Incremental is set).
	Reuse bitblast.SessionStats
	// Bounded is the transformed constraint (for inspection/emission).
	Bounded *smt.Constraint
	// FromWidth and ToWidth record a §6.4 width reduction (reduce
	// assembly only).
	FromWidth, ToWidth int
	// Trace is the ordered per-stage span list, recorded only when
	// Config.Trace is set (the hot path records aggregate metrics only).
	Trace []Span
	// Fault classifies a contained failure (FaultPanic, FaultWatchdog,
	// FaultBudget, FaultStall, FaultTransient); empty for clean runs.
	Fault string
	// FaultPass names the pass the fault was contained at.
	FaultPass string
	// PanicStack is the captured goroutine stack of a recovered pass
	// panic (empty unless Fault is FaultPanic).
	PanicStack string
}

// String summarizes a pipeline result for logs.
func (r Result) String() string {
	sort := ""
	if r.Width > 0 {
		sort = fmt.Sprintf("width=%d", r.Width)
	} else if r.FPSort.Kind == smt.KindFloat {
		sort = r.FPSort.String()
	}
	return fmt.Sprintf("%s %s trans=%v post=%v check=%v",
		r.Outcome, sort, r.TTrans.Round(time.Microsecond),
		r.TPost.Round(time.Microsecond), r.TCheck.Round(time.Microsecond))
}
