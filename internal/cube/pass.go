package cube

import (
	"fmt"
	"time"

	"staub/internal/pipeline"
	"staub/internal/solver"
	"staub/internal/status"
)

func init() {
	pipeline.Register(pipeline.Pass{
		Name: pipeline.PassCubeSolve,
		Doc:  "split the bounded constraint into assumption cubes and race them with LBD-filtered clause sharing",
		Run:  passCubeSolve,
	})
}

// passCubeSolve is the cube-and-conquer counterpart of bounded-solve:
// same translation accounting, same outcome classification, but the
// solve itself races 2^CubeVars assumption cubes. Anything cubing does
// not apply to — incremental sessions (assumption cubes would collide
// with the session's activation literals), constraints the SAT pipeline
// does not decide, a zero CubeVars — delegates to the exact sequential
// semantics, as does any contained cube fault via the in-package
// fallback.
func passCubeSolve(st *pipeline.State) pipeline.Verdict {
	cfg, res := st.Cfg, st.Res
	transWork := pipeline.ChargeTranslation(st)
	kind := solver.ClassifyConstraint(st.Bounded)
	if cfg.CubeVars <= 0 || st.Session != nil || (kind != solver.KindBool && kind != solver.KindBV) {
		return pipeline.SolveBounded(st, transWork)
	}

	var solveBudget int64
	if cfg.Deterministic {
		solveBudget = solver.WorkBudgetFor(cfg.Timeout) - transWork
		if solveBudget < 1 {
			solveBudget = 1
		}
	}
	t1 := time.Now()
	cres := Solve(st.Bounded, Options{
		Vars:          cfg.CubeVars,
		WorkBudget:    solveBudget,
		Deadline:      st.Deadline,
		Interrupt:     st.Interrupt,
		Deterministic: cfg.Deterministic,
	})
	work := cres.Work
	if cfg.Deterministic {
		// Work legitimately sums the probe and every leg (a cancelled
		// leg's partial work included), so its ceiling is the per-leg
		// budget times legs+probe; anything past that is an injected
		// blowup, clamped like the sequential pass clamps its budget.
		workCap := solveBudget * (int64(1)<<uint(cfg.CubeVars) + 1)
		if work > workCap {
			work = workCap
		}
		// Virtual wall time is the makespan — the legs' critical path
		// across GOMAXPROCS workers — clamped to the request budget
		// exactly as the sequential solve's own time is.
		charged := cres.Makespan
		if cres.TimedOut || charged > solveBudget {
			charged = solveBudget
		}
		res.TPost += solver.VirtualDuration(charged)
	} else {
		res.TPost += time.Since(t1)
	}
	res.SolveWork += work
	res.Cubes = cres.Cubes
	st.Solve = solver.Result{
		Status:   cres.Status,
		Model:    cres.Model,
		Work:     work,
		TimedOut: cres.TimedOut,
		Engine:   "cube",
	}
	st.SpanWork = work
	st.SpanNote = fmt.Sprintf("%s cubes=%d", cres.Status, cres.Cubes)
	if cres.Fault != "" {
		st.SpanNote += " (cube fallback: " + cres.Fault + ")"
	}

	switch cres.Status {
	case status.Sat:
		return pipeline.Continue
	case status.Unsat:
		res.Outcome = st.UnsatOutcome
		// Same soundness rule as the sequential solve: unsat holds for
		// the original only under an over-approximating or exact chain.
		res.Status = pipeline.SoundStatus(st.UnsatOutcome, st.Direction)
	default:
		res.Outcome = st.UnknownOutcome
		res.Status = status.Unknown
	}
	return pipeline.Stop
}
