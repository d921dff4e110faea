// Package solver is the façade over every decision engine in the
// repository. It dispatches a constraint by the sorts it uses — bitvector
// and boolean constraints to the bit-blasting CDCL pipeline, floating-point
// constraints to fpsolver's local search and then to CDCL over
// round-to-nearest-even circuits, integer and real constraints to the
// unbounded engines — under a single deadline/interrupt regime.
//
// Two solver profiles are provided, Prima and Secunda, with different
// search schedules. They stand in for the paper's two external solvers (Z3
// and CVC5): the evaluation tables compare STAUB's effect under both to
// show the speedup is not solver-specific.
package solver

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"staub/internal/bitblast"
	"staub/internal/eval"
	"staub/internal/fpsolver"
	"staub/internal/intsolver"
	"staub/internal/realsolver"
	"staub/internal/sat"
	"staub/internal/smt"
	"staub/internal/status"
)

// Profile selects a solver configuration.
type Profile int

// Profiles.
const (
	// Prima is the default profile (the paper's Z3 column).
	Prima Profile = iota
	// Secunda uses a different deepening schedule and budgets (the
	// paper's CVC5 column).
	Secunda
)

func (p Profile) String() string {
	if p == Secunda {
		return "secunda"
	}
	return "prima"
}

// ParseProfile is the inverse of Profile.String. The empty name selects
// Prima; an unknown name is an error.
func ParseProfile(name string) (Profile, error) {
	switch name {
	case "", "prima":
		return Prima, nil
	case "secunda":
		return Secunda, nil
	}
	return Prima, fmt.Errorf("unknown profile %q (want prima or secunda)", name)
}

// Options configures a solve call.
type Options struct {
	// Ctx, when non-nil, aborts solving on cancellation or deadline
	// expiry (in addition to Deadline/Interrupt below).
	Ctx context.Context
	// Deadline aborts solving when passed (zero: none).
	Deadline time.Time
	// Interrupt aborts solving when set (nil: none).
	Interrupt *atomic.Bool
	// WorkBudget, when positive, bounds solving by a deterministic count
	// of elementary search steps instead of the wall clock (see work.go).
	// Deadline then acts only as a backstop.
	WorkBudget int64
	// Profile selects the engine configuration.
	Profile Profile
	// Seed perturbs randomized components.
	Seed int64
}

// Result is a completed solve.
type Result struct {
	Status  status.Status
	Model   eval.Assignment
	Elapsed time.Duration
	// Work is the deterministic search effort in work units (≥ 1); it is
	// the same across runs for the same constraint and options.
	Work int64
	// TimedOut reports whether the deadline/interrupt/budget fired.
	TimedOut bool
	// Engine names the engine that ran.
	Engine string
}

// Kind classifies a constraint by the theory of its variables.
type Kind int

// Constraint kinds.
const (
	KindGround Kind = iota // no variables
	KindBool               // boolean variables only
	KindBV                 // bitvector (and boolean) variables
	KindFP                 // floating-point variables
	KindInt                // integer (and boolean) variables
	KindReal               // real (and boolean) variables
	KindMixed              // unsupported mixtures
)

// ClassifyConstraint inspects variable sorts.
func ClassifyConstraint(c *smt.Constraint) Kind {
	var hasBool, hasBV, hasFP, hasInt, hasReal bool
	for _, v := range c.Vars {
		switch v.Sort.Kind {
		case smt.KindBool:
			hasBool = true
		case smt.KindBitVec:
			hasBV = true
		case smt.KindFloat:
			hasFP = true
		case smt.KindInt:
			hasInt = true
		case smt.KindReal:
			hasReal = true
		}
	}
	count := 0
	for _, b := range []bool{hasBV, hasFP, hasInt, hasReal} {
		if b {
			count++
		}
	}
	switch {
	case count > 1:
		return KindMixed
	case hasBV:
		return KindBV
	case hasFP:
		return KindFP
	case hasInt:
		return KindInt
	case hasReal:
		return KindReal
	case hasBool:
		return KindBool
	default:
		return KindGround
	}
}

// Solve decides c under the given options.
func Solve(c *smt.Constraint, o Options) Result {
	start := time.Now()
	if o.Ctx != nil {
		if err := o.Ctx.Err(); err != nil {
			return Result{Status: status.Unknown, TimedOut: true, Work: 1, Engine: "cancelled"}
		}
		if o.Interrupt == nil {
			o.Interrupt = new(atomic.Bool)
		}
		stop := watchContext(o.Ctx, o.Interrupt)
		defer stop()
	}
	res := solveDispatch(c, o)
	res.Elapsed = time.Since(start)
	if res.Work < 1 {
		res.Work = 1
	}
	return res
}

// watchContext forwards a context cancellation to an interrupt flag that
// every engine polls; the returned func releases the watcher.
func watchContext(ctx context.Context, flag *atomic.Bool) func() {
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			flag.Store(true)
		case <-done:
		}
	}()
	return func() { close(done) }
}

func solveDispatch(c *smt.Constraint, o Options) Result {
	switch ClassifyConstraint(c) {
	case KindGround:
		ok, err := eval.Constraint(c, eval.Assignment{})
		if err != nil {
			return Result{Status: status.Unknown, Work: int64(c.NumNodes()), Engine: "ground"}
		}
		st := status.Unsat
		var m eval.Assignment
		if ok {
			st = status.Sat
			m = eval.Assignment{}
		}
		return Result{Status: st, Model: m, Work: int64(c.NumNodes()), Engine: "ground"}

	case KindBool, KindBV:
		return solveCNF(c, o, o.WorkBudget)

	case KindFP:
		return solveFP(c, o)

	case KindInt:
		p := intsolver.Params{Deadline: o.Deadline, Interrupt: o.Interrupt}
		if o.Profile == Secunda {
			p.RadiusFactor = 3
			p.MaxBranchDepth = 400
			p.MaxDNFCases = 128
			p.NodeBudget = 6_000_000
		}
		if o.WorkBudget > 0 && (p.NodeBudget == 0 || o.WorkBudget < p.NodeBudget) {
			p.NodeBudget = o.WorkBudget
		}
		st, model, stats := intsolver.Solve(c, p)
		return Result{Status: st, Model: model, Work: stats.Nodes, TimedOut: stats.TimedOut, Engine: "intsolver"}

	case KindReal:
		p := realsolver.Params{Deadline: o.Deadline, Interrupt: o.Interrupt}
		if o.Profile == Secunda {
			p.MinWidth = 16
			p.MaxRadius = 1 << 18
			p.MaxDNFCases = 128
		}
		if o.WorkBudget > 0 && (p.NodeBudget == 0 || o.WorkBudget < p.NodeBudget) {
			p.NodeBudget = o.WorkBudget
		}
		st, model, stats := realsolver.Solve(c, p)
		return Result{Status: st, Model: model, Work: stats.Nodes, TimedOut: stats.TimedOut, Engine: "realsolver"}

	default:
		return Result{Status: status.Unknown, Engine: "unsupported"}
	}
}

// solveCNF bit-blasts c and decides it by CDCL within budget work units
// (0: no budget).
func solveCNF(c *smt.Constraint, o Options, budget int64) Result {
	var sref *sat.Solver
	st, model, err := bitblast.Solve(c, func(s *sat.Solver) {
		sref = s
		s.Deadline = o.Deadline
		if budget > 0 {
			s.PropagationCap = budget * satWorkScale
		}
		if o.Interrupt != nil {
			s.SetInterrupt(o.Interrupt)
		}
	})
	out := Result{Engine: "bitblast"}
	if sref != nil {
		out.Work = sref.Stats.Propagations / satWorkScale
		recordSATStats(sref.Stats)
	}
	if err != nil {
		out.Status = status.Unknown
		return out
	}
	switch st {
	case sat.Sat:
		out.Status, out.Model = status.Sat, model
	case sat.Unsat:
		out.Status = status.Unsat
	default:
		out.Status = status.Unknown
		out.TimedOut = true
	}
	return out
}

// solveFP decides a floating-point constraint in two stages under one
// budget. fpsolver's local search runs first on half of it: half the work
// budget, or with only a deadline until the midpoint of the time left.
// CDCL over package bitblast's circuits then runs on the rest, finding
// the models the search misses and proving bounded unsat. A constraint
// with boolean variables is outside the search's fragment: the search
// gives up at once and CDCL gets the whole budget. Result.Work sums both
// stages; Result.Engine names the stage that answered.
func solveFP(c *smt.Constraint, o Options) Result {
	p := fpsolver.Params{Deadline: o.Deadline, Interrupt: o.Interrupt, Seed: o.Seed}
	if o.Profile == Secunda {
		p.SearchIters = 120000
	}
	if o.WorkBudget > 0 {
		p.NodeBudget = max(o.WorkBudget/2/fpWorkCost, 1)
	} else if !o.Deadline.IsZero() {
		p.Deadline = time.Now().Add(time.Until(o.Deadline) / 2)
	}
	st, model, stats := fpsolver.Solve(c, p)
	search := Result{Status: st, Model: model, Work: stats.Nodes * fpWorkCost, TimedOut: stats.TimedOut, Engine: "fpsearch"}
	if st != status.Unknown {
		return search
	}
	if o.Interrupt != nil && o.Interrupt.Load() || !o.Deadline.IsZero() && time.Now().After(o.Deadline) {
		search.TimedOut = true
		return search
	}
	var budget int64
	if o.WorkBudget > 0 {
		budget = max(o.WorkBudget-search.Work, 1)
	}
	out := solveCNF(c, o, budget)
	out.Work += search.Work
	return out
}

// SolveTimeout is a convenience wrapping Solve with a duration budget. The
// context aborts the solve early when cancelled.
func SolveTimeout(ctx context.Context, c *smt.Constraint, d time.Duration, profile Profile) Result {
	return Solve(c, Options{Ctx: ctx, Deadline: time.Now().Add(d), Profile: profile})
}

// VerifyModel checks a model against a constraint with the exact
// evaluator; errors (for example division by zero under the model) count
// as non-satisfaction.
func VerifyModel(c *smt.Constraint, m eval.Assignment) bool {
	ok, err := eval.Constraint(c, m)
	return err == nil && ok
}

// FormatModel renders a model deterministically for logs and examples.
func FormatModel(c *smt.Constraint, m eval.Assignment) string {
	out := ""
	for _, name := range c.SortedVarNames() {
		if v, ok := m[name]; ok {
			out += fmt.Sprintf("%s = %s\n", name, v)
		}
	}
	return out
}
