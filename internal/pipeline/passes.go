package pipeline

import (
	"fmt"
	"time"

	"staub/internal/absint"
	"staub/internal/eval"
	"staub/internal/smt"
	"staub/internal/solver"
	"staub/internal/status"
	"staub/internal/translate"
)

func init() {
	Register(Pass{Name: PassInferBounds, Doc: "classify the theory and select bounded sorts by abstract interpretation", Run: passInferBounds})
	Register(Pass{Name: PassTranslate, Doc: "translate the unbounded constraint to the selected bounded sorts", Run: passTranslate})
	Register(Pass{Name: PassBoundedSolve, Doc: "solve the bounded constraint under the time/work budget", Run: passBoundedSolve})
	Register(Pass{Name: PassVerifyModel, Doc: "map the bounded model back and verify it against the original", Run: passVerifyModel})
}

// failTransform ends a round as transform-failed, charging the time spent
// since the round's T0 (one virtual work unit per original node in
// deterministic mode).
func failTransform(st *State, err error) Verdict {
	tt := time.Since(st.T0)
	if st.Cfg.Deterministic {
		tt = solver.VirtualDuration(int64(st.Original.NumNodes()))
	}
	st.Res.Outcome = OutcomeTransformFailed
	st.Res.Status = status.Unknown
	st.Res.TTrans += tt
	st.Err = err
	st.SpanNote = err.Error()
	return Stop
}

// FailTransform ends the round as transform-failed with the shared
// accounting, exported so out-of-package passes (internal/overapprox)
// revert exactly like the built-in transforms — including under injected
// chaos faults, where a graceful transform-failed must never become a
// verdict flip or a degradation.
func FailTransform(st *State, err error) Verdict {
	return failTransform(st, err)
}

// passInferBounds classifies the constraint's theory and selects the
// bounded sorts: the fixed-width ablation takes the configured width
// directly; otherwise abstract interpretation infers the root bound and
// absint's sort bounds clamp it (Figure 3, step 1).
func passInferBounds(st *State) Verdict {
	c, cfg := st.Original, st.Cfg
	kind, err := translate.Classify(c)
	if err != nil {
		return failTransform(st, err)
	}
	st.Kind = kind
	st.SpanWork = int64(c.NumNodes())
	if cfg.FixedWidth > 0 {
		st.Root = cfg.FixedWidth
		switch kind {
		case translate.KindIntToBV:
			st.Width = cfg.FixedWidth
		default:
			st.FPSort = FixedFPSort(cfg.FixedWidth)
		}
		st.SpanNote = fmt.Sprintf("fixed width=%d", cfg.FixedWidth)
		return Continue
	}
	switch kind {
	case translate.KindIntToBV:
		inf := absint.InferIntWith(c, absint.DefaultIntX(c), absint.SemPractical)
		st.Width = absint.SelectBVWidth(inf.Root)
		st.Root = inf.Root
		if cfg.StartWidth > 0 {
			// Per-session refinement strategy: start at the requested
			// precision (clamped to the widest width) regardless of the
			// inferred bound; refinement rounds widen from there.
			st.Width = min(cfg.StartWidth, absint.MaxWidth)
			st.SpanNote = fmt.Sprintf("width=%d (start-width) root=%d", st.Width, st.Root)
			return Continue
		}
		st.SpanNote = fmt.Sprintf("width=%d root=%d", st.Width, st.Root)
	default:
		x := absint.DefaultRealX(c)
		inf := absint.InferReal(c, x)
		st.FPSort = absint.SelectFPSort(inf.Root)
		st.Root = inf.Root.M + inf.Root.P
		st.SpanNote = fmt.Sprintf("fpsort=%v root=%d", st.FPSort, st.Root)
	}
	return Continue
}

// passTranslate rewrites the constraint into the selected bounded sorts
// (Figure 3, step 2). The source is the linearized abstraction when an
// earlier pass installed one, the original otherwise. When the
// over-approximating assembly chose the linear fallback (SkipTranslate),
// the pass installs the abstraction itself as the "bounded" form — the
// solver dispatches Int/Real-sorted constraints to the unbounded linear
// engines — with an identity model-back.
//
// Direction: an int→BV translation whose width was a-priori certified is
// exact (every solution of the source fits the width); every other
// translation — uncertified widths, real→FP rounding — is an
// under-approximating step.
func passTranslate(st *State) Verdict {
	src := st.Original
	if st.Abstracted != nil {
		src = st.Abstracted
	}
	if st.SkipTranslate {
		st.Bounded = src
		st.ModelBack = func(m eval.Assignment) (eval.Assignment, error) { return m, nil }
		st.Res.InferredRoot = st.Root
		st.SpanWork = int64(src.NumNodes())
		st.SpanNote = "skipped (linear form)"
		return Continue
	}
	var (
		tr  *translate.Result
		err error
	)
	switch st.Kind {
	case translate.KindIntToBV:
		tr, err = translate.IntToBVWithHints(src, st.Width, st.Hints)
	default:
		tr, err = translate.RealToFP(src, st.FPSort)
	}
	st.Translated = tr
	if err != nil {
		return failTransform(st, err)
	}
	if st.WidthCertified {
		st.Direction = ComposeDirection(st.Direction, DirExact)
	} else {
		st.Direction = ComposeDirection(st.Direction, DirUnder)
	}
	st.Bounded = tr.Bounded
	st.ModelBack = tr.ModelBack
	st.Res.Width = tr.Width
	st.Res.FPSort = tr.FPSort
	st.Res.InferredRoot = st.Root
	st.SpanWork = int64(tr.Bounded.NumNodes())
	if st.Width > 0 {
		st.SpanNote = fmt.Sprintf("width=%d", tr.Width)
	} else {
		st.SpanNote = tr.FPSort.String()
	}
	return Continue
}

// passBoundedSolve closes the round's translation accounting
// (ChargeTranslation), then solves the bounded constraint under the
// budget — a fresh solver, or the state's incremental session when one is
// installed (Figure 3, step 3). Unsat and unknown end the chain with the
// state's parameterized outcomes.
func passBoundedSolve(st *State) Verdict {
	return SolveBounded(st, ChargeTranslation(st))
}

// ChargeTranslation closes the current round's translation accounting —
// one work unit per original + bounded node, plus the state's
// ChargedWork, in deterministic mode, wall clock since T0 otherwise — and
// returns the charged translation work.
// It is the shared prologue of the bounded-solve and cube-solve passes;
// each solve pass must call it exactly once per round.
func ChargeTranslation(st *State) int64 {
	cfg, res := st.Cfg, st.Res
	res.Bounded = st.Bounded
	transWork := int64(st.Original.NumNodes()+st.Bounded.NumNodes()) + st.ChargedWork
	st.ChargedWork = 0
	if cfg.Deterministic {
		res.TTrans += solver.VirtualDuration(transWork)
	} else {
		res.TTrans += time.Since(st.T0)
	}
	return transWork
}

// SolveBounded solves the bounded constraint sequentially under the
// budget that remains after transWork — a fresh solver, or the state's
// incremental session when one is installed — and classifies the result
// with the state's parameterized outcomes. It is the body of the
// bounded-solve pass, exported so the cube-solve pass can delegate to
// the exact sequential semantics when cubing does not apply or a cube
// fault forces a fallback.
func SolveBounded(st *State, transWork int64) Verdict {
	cfg, res := st.Cfg, st.Res
	opts := solver.Options{
		Ctx:       st.Ctx,
		Deadline:  st.Deadline,
		Interrupt: st.Interrupt,
		Profile:   cfg.Profile,
		Seed:      cfg.Seed,
	}
	var solveBudget int64
	if cfg.Deterministic {
		solveBudget = solver.WorkBudgetFor(cfg.Timeout) - transWork
		if solveBudget < 1 {
			solveBudget = 1
		}
		opts.WorkBudget = solveBudget
	}
	t1 := time.Now()
	var sres solver.Result
	if st.Session != nil {
		sres = st.Session.SolveRound(st.Bounded, opts)
	} else {
		sres = solver.Solve(st.Bounded, opts)
	}
	work := sres.Work
	if cfg.Deterministic {
		if sres.TimedOut || work > solveBudget {
			work = solveBudget
		}
		res.TPost += solver.VirtualDuration(work)
	} else {
		res.TPost += time.Since(t1)
	}
	res.SolveWork += work
	st.Solve = sres
	st.SpanWork = work
	st.SpanNote = sres.Status.String()

	switch sres.Status {
	case status.Sat:
		return Continue
	case status.Unsat:
		res.Outcome = st.UnsatOutcome
		// Unsat soundness follows the approximation direction: an
		// over-approximating or exact run proved the original unsat; an
		// under-approximating run proved nothing.
		res.Status = SoundStatus(st.UnsatOutcome, st.Direction)
	default:
		res.Outcome = st.UnknownOutcome
		res.Status = status.Unknown
	}
	return Stop
}

// passVerifyModel maps the bounded model back to the original sorts and
// checks it against the original constraint (Figure 3, step 4): a
// verified model is a definitive sat, anything else is a semantic
// difference.
func passVerifyModel(st *State) Verdict {
	cfg, res := st.Cfg, st.Res
	t2 := time.Now()
	model, err := st.ModelBack(st.Solve.Model)
	if err == nil && st.AbstractBack != nil {
		// Project the abstraction's model back onto the original's
		// variables (drop fresh product variables) before verifying.
		model, err = st.AbstractBack(model)
	}
	verified := err == nil && solver.VerifyModel(st.Original, model)
	if cfg.Deterministic {
		res.TCheck += solver.VirtualDuration(int64(st.Original.NumNodes()))
	} else {
		res.TCheck += time.Since(t2)
	}
	st.SpanWork = int64(st.Original.NumNodes())
	if verified {
		res.Outcome = OutcomeVerified
		res.Status = status.Sat
		res.Model = model
		st.SpanNote = "verified"
	} else {
		res.Outcome = OutcomeSemanticDifference
		res.Status = status.Unknown
		st.SpanNote = "semantic-difference"
	}
	return Stop
}

// FixedFPSort maps a total bit width to a floating-point sort for the
// fixed-width ablation (e.g. 16 → Float16).
func FixedFPSort(width int) smt.Sort {
	switch {
	case width <= 8:
		return smt.FloatSort(4, width-4+1)
	case width == 16:
		return smt.Float16Sort
	case width == 32:
		return smt.Float32Sort
	case width == 64:
		return smt.Float64Sort
	default:
		eb := 5
		for (1<<(eb-1))-1 < width/2 {
			eb++
		}
		return smt.FloatSort(eb, width-eb)
	}
}
