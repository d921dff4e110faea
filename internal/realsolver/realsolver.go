// Package realsolver decides constraints over the unbounded theory of real
// numbers: the linear fragment (QF_LRA) directly with the exact
// δ-rational simplex, and the nonlinear fragment (QF_NRA) with interval
// branch-and-prune (ICP) over rational boxes.
//
// The nonlinear engine is incomplete in both directions at its precision
// floor: a box certifies satisfiability only when every atom is
// interval-certain over it (or an exact rational point check succeeds),
// and refutation requires interval exclusion. Real CAD-based solvers
// decide NRA completely but at doubly-exponential cost; the incomplete ICP
// engine reproduces the practical profile the paper's evaluation shows for
// real arithmetic (short solve times on easy instances, little headroom
// for STAUB).
package realsolver

import (
	"math/big"
	"sync/atomic"
	"time"

	"staub/internal/eval"
	"staub/internal/interval"
	"staub/internal/poly"
	"staub/internal/simplex"
	"staub/internal/smt"
	"staub/internal/status"
)

// Params configures a solve call.
type Params struct {
	// Deadline aborts the search when passed (zero: none).
	Deadline time.Time
	// Interrupt aborts the search when it becomes true (nil: none).
	Interrupt *atomic.Bool
	// MaxRadius bounds the NRA deepening radius (default 1<<16).
	MaxRadius int64
	// MinWidth is the ICP precision floor as a negative power of two
	// exponent (default 12, i.e. boxes narrower than 2^-12 stop splitting).
	MinWidth uint
	// MaxDNFCases bounds boolean-structure expansion (default 64).
	MaxDNFCases int
	// NodeBudget bounds total search nodes (default 2M).
	NodeBudget int64
}

func (p Params) withDefaults() Params {
	if p.MaxRadius == 0 {
		p.MaxRadius = 1 << 16
	}
	if p.MinWidth == 0 {
		p.MinWidth = 12
	}
	if p.MaxDNFCases == 0 {
		p.MaxDNFCases = 64
	}
	if p.NodeBudget == 0 {
		p.NodeBudget = 2_000_000
	}
	return p
}

// Stats reports search effort.
type Stats struct {
	Nodes    int64
	Cases    int
	TimedOut bool
}

type searchState struct {
	params   Params
	nodes    int64
	timedOut bool
	minWidth *big.Rat
}

func (st *searchState) spend(n int64) bool {
	if st.timedOut {
		return false
	}
	st.nodes += n
	if st.nodes > st.params.NodeBudget {
		st.timedOut = true
		return false
	}
	if st.nodes%256 < n {
		if !st.params.Deadline.IsZero() && time.Now().After(st.params.Deadline) {
			st.timedOut = true
			return false
		}
		if st.params.Interrupt != nil && st.params.Interrupt.Load() {
			st.timedOut = true
			return false
		}
	}
	return true
}

// Solve decides a real constraint. The model (when Sat) assigns every
// declared variable a rational value.
func Solve(c *smt.Constraint, p Params) (status.Status, eval.Assignment, Stats) {
	p = p.withDefaults()
	st := &searchState{
		params:   p,
		minWidth: new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), p.MinWidth)),
	}

	cases, err := poly.DNFConstraint(c, p.MaxDNFCases)
	if err != nil {
		return status.Unknown, nil, Stats{}
	}
	var expanded []poly.Case
	for _, cs := range cases {
		sub, err := poly.SplitNe(cs, p.MaxDNFCases*4)
		if err != nil {
			return status.Unknown, nil, Stats{}
		}
		expanded = append(expanded, sub...)
	}

	allUnsat := true
	for _, cs := range expanded {
		res, model := solveCase(c, cs, st)
		switch res {
		case status.Sat:
			return status.Sat, model, Stats{Nodes: st.nodes, Cases: len(expanded)}
		case status.Unknown:
			allUnsat = false
		}
		if st.timedOut {
			return status.Unknown, nil, Stats{Nodes: st.nodes, Cases: len(expanded), TimedOut: true}
		}
	}
	if allUnsat {
		return status.Unsat, nil, Stats{Nodes: st.nodes, Cases: len(expanded)}
	}
	return status.Unknown, nil, Stats{Nodes: st.nodes, Cases: len(expanded), TimedOut: st.timedOut}
}

func solveCase(c *smt.Constraint, cs poly.Case, st *searchState) (status.Status, eval.Assignment) {
	if cs.MaxDegree() <= 1 {
		return solveLinearCase(c, cs, st)
	}
	return solveNonlinearCase(c, cs, st)
}

// solveLinearCase decides a linear case with one simplex run (LRA is
// decidable without branching).
func solveLinearCase(c *smt.Constraint, cs poly.Case, st *searchState) (status.Status, eval.Assignment) {
	if !st.spend(1) {
		return status.Unknown, nil
	}
	sx := simplex.New()
	for _, a := range cs {
		if err := sx.AddAtom(a); err != nil {
			return status.Unknown, nil
		}
	}
	switch sx.Check() {
	case simplex.Unsat:
		return status.Unsat, nil
	case simplex.Unknown:
		return status.Unknown, nil
	}
	return status.Sat, completeModel(c, sx.Model())
}

// solveNonlinearCase runs ICP with iterative deepening.
func solveNonlinearCase(c *smt.Constraint, cs poly.Case, st *searchState) (status.Status, eval.Assignment) {
	vars := cs.Vars()
	if len(vars) == 0 {
		for _, a := range cs {
			ok, err := a.Holds(nil)
			if err != nil || !ok {
				return status.Unsat, nil
			}
		}
		return status.Sat, completeModel(c, nil)
	}

	base := cs.UnitBox(vars)
	for _, a := range cs {
		if a.Refuted(base) {
			return status.Unsat, nil
		}
	}
	if simplex.LinearSubsetUnsat(cs) {
		return status.Unsat, nil
	}

	bounded := true
	for _, v := range vars {
		if _, ok := base[v].Width(); !ok {
			bounded = false
			break
		}
	}
	if bounded {
		res, model := branchPrune(cs, vars, base, st, true)
		if res == status.Sat {
			return status.Sat, completeModel(c, model)
		}
		return res, nil
	}

	sawUnknown := false
	for r := int64(2); r <= st.params.MaxRadius; r *= 4 {
		box := map[string]interval.Interval{}
		for _, v := range vars {
			box[v] = base[v].Intersect(interval.Of(-r, r))
		}
		res, model := branchPrune(cs, vars, box, st, false)
		if res == status.Sat {
			return status.Sat, completeModel(c, model)
		}
		if res == status.Unknown {
			sawUnknown = true
		}
		if st.timedOut {
			return status.Unknown, nil
		}
	}
	_ = sawUnknown
	return status.Unknown, nil
}

// branchPrune explores a bounded box. complete marks boxes whose
// exhaustion proves unsat (base box finite); deepened boxes never do.
func branchPrune(cs poly.Case, vars []string, box map[string]interval.Interval, st *searchState, complete bool) (status.Status, map[string]*big.Rat) {
	if !st.spend(1) {
		return status.Unknown, nil
	}
	for _, v := range vars {
		if box[v].Empty() {
			return status.Unsat, nil
		}
	}
	allCertain := true
	for _, a := range cs {
		if a.Refuted(box) {
			return status.Unsat, nil
		}
		if allCertain && !a.Certain(box) {
			allCertain = false
		}
	}
	mid := midpoint(vars, box)
	if allCertain {
		return status.Sat, mid
	}
	// Exact point check at the box midpoint (covers equality atoms with
	// rational solutions).
	pointOK := true
	for _, a := range cs {
		ok, err := a.Holds(mid)
		if err != nil || !ok {
			pointOK = false
			break
		}
	}
	if pointOK {
		return status.Sat, mid
	}

	// Pick the widest variable; stop at the precision floor.
	widest := ""
	var widestW *big.Rat
	for _, v := range vars {
		w, ok := box[v].Width()
		if !ok {
			widest = v
			break
		}
		if w.Cmp(st.minWidth) > 0 && (widestW == nil || w.Cmp(widestW) > 0) {
			widest, widestW = v, w
		}
	}
	if widest == "" {
		// Precision floor reached without certification.
		return status.Unknown, nil
	}
	iv := box[widest]
	m := iv.Mid()
	left := interval.New(iv.Lo, interval.Finite(m))
	right := interval.New(interval.Finite(m), iv.Hi)

	resL, mL := descend(cs, vars, box, widest, left, st, complete)
	if resL == status.Sat {
		return status.Sat, mL
	}
	resR, mR := descend(cs, vars, box, widest, right, st, complete)
	if resR == status.Sat {
		return status.Sat, mR
	}
	if resL == status.Unsat && resR == status.Unsat {
		return status.Unsat, nil
	}
	return status.Unknown, nil
}

func descend(cs poly.Case, vars []string, box map[string]interval.Interval, v string, iv interval.Interval, st *searchState, complete bool) (status.Status, map[string]*big.Rat) {
	sub := make(map[string]interval.Interval, len(box))
	for k, b := range box {
		sub[k] = b
	}
	sub[v] = iv
	return branchPrune(cs, vars, sub, st, complete)
}

func midpoint(vars []string, box map[string]interval.Interval) map[string]*big.Rat {
	out := map[string]*big.Rat{}
	for _, v := range vars {
		out[v] = box[v].Mid()
	}
	return out
}

func completeModel(c *smt.Constraint, model map[string]*big.Rat) eval.Assignment {
	out := eval.Assignment{}
	for _, v := range c.Vars {
		switch v.Sort.Kind {
		case smt.KindReal:
			if r, ok := model[v.Name]; ok {
				out[v.Name] = eval.RatValue(new(big.Rat).Set(r))
			} else {
				out[v.Name] = eval.RatValue(new(big.Rat))
			}
		case smt.KindBool:
			out[v.Name] = eval.BoolValue(false)
		}
	}
	return out
}
