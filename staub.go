// Package staub is the public API of STAUB, a reproduction of "SMT Theory
// Arbitrage: Approximating Unbounded Constraints using Bounded Theories"
// (Mikek & Zhang, PLDI 2024).
//
// STAUB speeds up SMT solving for the unbounded theories of integers and
// real numbers by translating constraints into the bounded theories of
// bitvectors and floating-point numbers, whose decision procedures are
// cheaper. Bounds are inferred by an abstract interpretation over bit
// widths (integers) and (magnitude, precision) pairs (reals); because the
// inferred bounds underapproximate, every satisfiable answer is verified
// against the original constraint, and a portfolio run guarantees no
// constraint is ever slowed down. A dual over-approximating chain
// (Config.OverApprox) linearizes nonlinear arithmetic into sound axioms
// and certifies complete widths a priori, so its unsat verdicts are sound
// too — the approximation direction travels with every result.
//
// # Quick start
//
//	c, err := staub.ParseScript(src)          // SMT-LIB input
//	res := staub.RunPipeline(c, staub.Config{})
//	if res.Outcome == staub.OutcomeVerified { // verified model of c
//	    fmt.Println(res.Model)
//	}
//
// RunPortfolio races the pipeline against the unmodified unbounded solver
// and returns the first definitive answer, which is the configuration the
// paper evaluates.
//
// The implementation is self-contained: it includes SMT-LIB parsing, the
// abstract interpretation, the translation, a CDCL SAT solver with a
// bit-blaster for the bitvector output, a parameterized IEEE-754
// softfloat engine, exact simplex / branch-and-bound / interval solvers
// for the unbounded side, and the full experiment harness behind the
// cmd/staub-bench tool.
package staub

import (
	"context"

	"staub/internal/absint"
	"staub/internal/core"
	"staub/internal/eval"
	"staub/internal/pipeline"
	"staub/internal/smt"
	"staub/internal/solver"
	"staub/internal/status"
	"staub/internal/translate"
)

// Re-exported core types. The aliases expose the stable public surface
// while the implementation lives in internal packages.
type (
	// Constraint is a parsed SMT problem.
	Constraint = smt.Constraint
	// Config controls the STAUB pipeline: timeout, fixed-width ablation,
	// solver profile, iterative bound refinement (RefineRounds) and
	// per-variable range hints (RangeHints).
	Config = core.Config
	// PipelineResult is a completed pipeline run.
	PipelineResult = core.PipelineResult
	// PortfolioResult is the outcome of racing STAUB against the
	// unmodified solver.
	PortfolioResult = core.PortfolioResult
	// Outcome classifies how a pipeline run ended.
	Outcome = core.Outcome
	// Direction is the approximation direction of a pipeline run —
	// whether the chain may have shrunk (under), enlarged (over) or
	// preserved (exact) the solution set. It is what makes an unsat
	// verdict sound: see SoundStatus.
	Direction = pipeline.Direction
	// Status is the three-valued solver verdict.
	Status = status.Status
	// Assignment maps variable names to values.
	Assignment = eval.Assignment
	// Limits bounds the sorts bound inference may select.
	Limits = absint.Limits
	// SolverProfile selects one of the two built-in solver
	// configurations.
	SolverProfile = solver.Profile
)

// Pipeline outcomes (see Figure 6 of the paper).
const (
	OutcomeVerified           = core.OutcomeVerified
	OutcomeBoundedUnsat       = core.OutcomeBoundedUnsat
	OutcomeSemanticDifference = core.OutcomeSemanticDifference
	OutcomeBoundedUnknown     = core.OutcomeBoundedUnknown
	OutcomeTransformFailed    = core.OutcomeTransformFailed
)

// Approximation directions.
const (
	DirUnder = pipeline.DirUnder
	DirOver  = pipeline.DirOver
	DirExact = pipeline.DirExact
)

// Solver verdicts.
const (
	Unknown = status.Unknown
	Sat     = status.Sat
	Unsat   = status.Unsat
)

// SoundStatus derives the verdict an (outcome, direction) pair supports:
// a verified model is Sat in any direction, an unsat-flavored outcome is
// Unsat only when the chain never shrank the solution set (over/exact),
// and everything else is Unknown. Every pipeline Result's Status is
// computed by this rule.
func SoundStatus(o Outcome, d Direction) Status { return pipeline.SoundStatus(o, d) }

// Solver profiles.
const (
	Prima   = solver.Prima
	Secunda = solver.Secunda
)

// ParseScript parses an SMT-LIB v2 script into a Constraint.
func ParseScript(src string) (*Constraint, error) { return smt.ParseScript(src) }

// RunPipeline executes the STAUB pipeline (infer bounds → translate →
// solve bounded → verify) on c. The default under-approximating chain
// never reports Unsat — an unsatisfiable bounded constraint is
// indistinguishable from insufficient bounds, so it reverts (Section 4.4
// of the paper). With Config.OverApprox the over-approximating assembly
// runs instead (linearize nonlinear products into sound axioms, certify
// a complete width a priori), and its Unsat verdicts are sound: the
// Result's Direction records which chain produced the answer.
func RunPipeline(c *Constraint, cfg Config) PipelineResult {
	return core.RunPipeline(context.Background(), c, cfg, nil)
}

// RunPipelineCtx is RunPipeline with a caller context: cancelling it
// aborts the bounded solve.
func RunPipelineCtx(ctx context.Context, c *Constraint, cfg Config) PipelineResult {
	return core.RunPipeline(ctx, c, cfg, nil)
}

// RunPortfolio races the pipeline against the unmodified solver on two
// goroutines and returns the first definitive verdict. With
// Config.OverApprox a third approximation leg joins the race and can
// settle unsat instances without waiting for the unbounded backstop
// (PortfolioResult.FromOver marks its wins).
func RunPortfolio(c *Constraint, cfg Config) PortfolioResult {
	return core.RunPortfolio(context.Background(), c, cfg)
}

// RunPortfolioCtx is RunPortfolio with a caller context: cancelling it
// aborts both legs of the race.
func RunPortfolioCtx(ctx context.Context, c *Constraint, cfg Config) PortfolioResult {
	return core.RunPortfolio(ctx, c, cfg)
}

// Transform runs only bound inference and translation, returning the
// bounded constraint (the paper's Figure 1b) without solving it. The
// second result is the raw inferred root width.
func Transform(c *Constraint, cfg Config) (*translate.Result, int, error) {
	return core.Transform(c, cfg)
}

// SolveDirect decides c with the appropriate engine for its theory: the
// unmodified-solver leg of the portfolio, under cfg's Timeout (default
// two seconds), Profile, Seed and Deterministic.
func SolveDirect(c *Constraint, cfg Config) (Status, Assignment) {
	r := pipeline.SolveOriginal(context.Background(), c, cfg, nil)
	return r.Status, r.Model
}

// VerifyModel checks a candidate model against a constraint with exact
// big-number evaluation.
func VerifyModel(c *Constraint, m Assignment) bool { return solver.VerifyModel(c, m) }
