// Package intsolver decides constraints over the unbounded theory of
// integers: the linear fragment (QF_LIA) with branch-and-bound over an
// exact rational simplex relaxation, and the nonlinear fragment (QF_NIA)
// with interval branch-and-prune plus iterative-deepening search.
//
// QF_NIA satisfiability is undecidable, so the nonlinear engine is
// necessarily incomplete: it proves unsat only when interval reasoning
// bounds the search space, and otherwise deepens the search radius until
// the budget expires. That cost profile — fast on small-solution
// instances, increasingly slow as solutions grow, budget-bound on unsat —
// is exactly the behaviour of unbounded solvers that STAUB's theory
// arbitrage exploits.
package intsolver

import (
	"math/big"
	"sort"
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
	// MaxBranchDepth bounds LIA branch-and-bound recursion (default 200).
	MaxBranchDepth int
	// MaxRadius bounds the NIA iterative-deepening search radius
	// (default 1<<20).
	MaxRadius int64
	// RadiusFactor is the deepening multiplier (default 2).
	RadiusFactor int64
	// MaxDNFCases bounds boolean-structure expansion (default 64).
	MaxDNFCases int
	// NodeBudget bounds total search nodes (default 10M).
	NodeBudget int64
}

func (p Params) withDefaults() Params {
	if p.MaxBranchDepth == 0 {
		p.MaxBranchDepth = 200
	}
	if p.MaxRadius == 0 {
		p.MaxRadius = 1 << 20
	}
	if p.RadiusFactor < 2 {
		p.RadiusFactor = 2
	}
	if p.MaxDNFCases == 0 {
		p.MaxDNFCases = 64
	}
	if p.NodeBudget == 0 {
		p.NodeBudget = 10_000_000
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
	// reference runs every nonlinear box on branchPrune, bypassing the
	// int64 kernel (the differential tests' reference).
	reference bool
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

// Solve decides an integer constraint. The model (when Sat) assigns every
// declared variable an integer value.
func Solve(c *smt.Constraint, p Params) (status.Status, eval.Assignment, Stats) {
	st := &searchState{params: p.withDefaults()}
	return st.solve(c)
}

func (st *searchState) solve(c *smt.Constraint) (status.Status, eval.Assignment, Stats) {
	p := st.params
	cases, err := poly.DNFConstraint(c, p.MaxDNFCases)
	if err != nil {
		return status.Unknown, nil, Stats{}
	}
	// Split disequalities up front; integers admit the strict split.
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

// solveCase decides one conjunction of atoms.
func solveCase(c *smt.Constraint, cs poly.Case, st *searchState) (status.Status, eval.Assignment) {
	if cs.MaxDegree() <= 1 {
		return solveLinearCase(c, cs, st)
	}
	return solveNonlinearCase(c, cs, st)
}

// solveLinearCase runs branch-and-bound over the simplex relaxation.
func solveLinearCase(c *smt.Constraint, cs poly.Case, st *searchState) (status.Status, eval.Assignment) {
	sx := simplex.New()
	for _, a := range cs {
		if err := sx.AddAtom(a); err != nil {
			return status.Unknown, nil
		}
	}
	// Integer variables of the constraint that actually occur.
	intVars := map[string]bool{}
	for _, v := range c.Vars {
		if v.Sort.Kind == smt.KindInt {
			intVars[v.Name] = true
		}
	}
	res, model := branchAndBound(sx, intVars, cs, st.params.MaxBranchDepth, st)
	if res != status.Sat {
		return res, nil
	}
	return status.Sat, completeModel(c, model)
}

func branchAndBound(sx *simplex.Solver, intVars map[string]bool, cs poly.Case, depth int, st *searchState) (status.Status, map[string]*big.Rat) {
	if !st.spend(1) {
		return status.Unknown, nil
	}
	switch sx.Check() {
	case simplex.Unsat:
		return status.Unsat, nil
	case simplex.Unknown:
		return status.Unknown, nil
	}
	model := sx.Model()
	// Find the first fractional integer variable in sorted order (for
	// deterministic search trees).
	names := make([]string, 0, len(model))
	for name := range model {
		names = append(names, name)
	}
	sort.Strings(names)
	fracVar := ""
	for _, name := range names {
		if intVars[name] && !model[name].IsInt() {
			fracVar = name
			break
		}
	}
	if fracVar == "" {
		// Integral already; round the model into big.Ints implicitly (all
		// integer vars are integral, real vars none here).
		return status.Sat, model
	}
	if depth <= 0 {
		return status.Unknown, nil
	}
	v := model[fracVar]
	floor := interval.Floor(v)
	ceil := interval.Ceil(v)

	left := sx.Clone()
	left.AssertUpper(fracVar, new(big.Rat).SetInt(floor))
	resL, mL := branchAndBound(left, intVars, cs, depth-1, st)
	if resL == status.Sat {
		return status.Sat, mL
	}
	right := sx.Clone()
	right.AssertLower(fracVar, new(big.Rat).SetInt(ceil))
	resR, mR := branchAndBound(right, intVars, cs, depth-1, st)
	if resR == status.Sat {
		return status.Sat, mR
	}
	if resL == status.Unsat && resR == status.Unsat {
		return status.Unsat, nil
	}
	return status.Unknown, nil
}

// solveNonlinearCase runs interval branch-and-prune with iterative
// deepening of the search radius.
func solveNonlinearCase(c *smt.Constraint, cs poly.Case, st *searchState) (status.Status, eval.Assignment) {
	vars := cs.Vars()
	if len(vars) == 0 {
		// Ground case: evaluate each atom at the empty point.
		for _, a := range cs {
			ok, err := a.Holds(nil)
			if err != nil || !ok {
				return status.Unsat, nil
			}
		}
		return status.Sat, completeModel(c, nil)
	}

	// Initial box from single-variable linear atoms, integers rounded.
	base := map[string]interval.Interval{}
	for _, v := range vars {
		base[v] = interval.Full()
	}
	contractUnitAtoms(cs, base)

	// Refutation over the (possibly unbounded) initial box proves unsat.
	for _, a := range cs {
		if a.Refuted(base) {
			return status.Unsat, nil
		}
	}

	// An infeasible linear subset also refutes the case (solvers discharge
	// this with their linear core before any nonlinear reasoning).
	if linearSubsetUnsat(cs) {
		return status.Unsat, nil
	}

	var cc *case64
	if !st.reference {
		cc = compileCase64(cs, vars)
	}

	// If every variable is already finitely bounded, one exhaustive
	// branch-and-prune pass decides the case.
	if boxBounded(base, vars) {
		res, model := searchBox(cs, cc, vars, base, st)
		if res == status.Sat {
			return status.Sat, completeModel(c, model)
		}
		return res, nil
	}

	// Iterative deepening: intersect with [-r, r]^n for growing r. A sat
	// answer is definitive; exhausting a radius only rules out that box.
	for r := int64(2); r <= st.params.MaxRadius; r *= st.params.RadiusFactor {
		box := map[string]interval.Interval{}
		for _, v := range vars {
			box[v] = base[v].Intersect(interval.Of(-r, r)).RoundIntoInts()
		}
		res, model := searchBox(cs, cc, vars, box, st)
		if res == status.Sat {
			return status.Sat, completeModel(c, model)
		}
		if st.timedOut {
			return status.Unknown, nil
		}
	}
	return status.Unknown, nil
}

// linearSubsetUnsat reports whether the linear atoms of the case alone are
// infeasible over the rationals (which refutes the integer case too).
func linearSubsetUnsat(cs poly.Case) bool {
	sx := simplex.New()
	n := 0
	for _, a := range cs {
		if a.P.IsLinear() && a.Rel != poly.RelNe {
			if err := sx.AddAtom(a); err == nil {
				n++
			}
		}
	}
	return n > 0 && sx.Check() == simplex.Unsat
}

// contractUnitAtoms tightens the box using atoms over a single variable
// with degree 1 (x ⋈ c) and degree-2 squares (a*x^2 + k <= 0 style bounds
// are left to pruning).
func contractUnitAtoms(cs poly.Case, box map[string]interval.Interval) {
	for _, a := range cs {
		vars := a.P.Vars()
		if len(vars) != 1 || !a.P.IsLinear() {
			continue
		}
		name := vars[0]
		coef := a.P[poly.Monomial(name)]
		if coef == nil || coef.Sign() == 0 {
			continue
		}
		// coef*x + k ⋈ 0  →  x ⋈' rhs
		rhs := new(big.Rat).Neg(a.P.ConstPart())
		rhs.Quo(rhs, coef)
		flipped := coef.Sign() < 0
		iv := box[name]
		switch a.Rel {
		case poly.RelEq:
			iv = iv.Intersect(interval.Point(rhs))
		case poly.RelLe, poly.RelLt:
			if flipped {
				iv = iv.Intersect(interval.New(interval.Finite(rhs), interval.PosInf()))
			} else {
				iv = iv.Intersect(interval.New(interval.NegInf(), interval.Finite(rhs)))
			}
		}
		box[name] = iv
	}
	for v := range box {
		box[v] = box[v].RoundIntoInts()
	}
}

func boxBounded(box map[string]interval.Interval, vars []string) bool {
	for _, v := range vars {
		if _, ok := box[v].Width(); !ok {
			return false
		}
	}
	return true
}

// searchBox explores box on the int64 kernel when the case compiled (cc
// != nil) and every endpoint is an integer within ±2^61, and on the exact
// branchPrune otherwise. Both visit the same nodes in the same order.
func searchBox(cs poly.Case, cc *case64, vars []string, box map[string]interval.Interval, st *searchState) (status.Status, map[string]*big.Rat) {
	if cc != nil {
		if k, ok := cc.newKernel64(box); ok {
			return k.search(st), k.model
		}
	}
	return branchPrune(cs, vars, box, st)
}

// branchPrune explores the box depth-first: check point boxes exactly,
// split the widest variable otherwise. It refutes nothing per node, by
// design: mainstream solvers' nonlinear engines (incremental
// linearization, NLSat) do not behave like interval solvers, and the
// honest enumeration profile — exponential in the magnitude of the
// smallest solution — is the cost structure the paper's theory arbitrage
// exploits. Interval refutation runs once, over the root box, in
// solveNonlinearCase.
func branchPrune(cs poly.Case, vars []string, box map[string]interval.Interval, st *searchState) (status.Status, map[string]*big.Rat) {
	if !st.spend(1) {
		return status.Unknown, nil
	}
	for _, v := range vars {
		if box[v].Empty() {
			return status.Unsat, nil
		}
	}
	// Pick the widest non-point variable; an unbounded interval wins
	// outright (defensive: callers pass bounded boxes).
	widest := ""
	var widestW *big.Rat
	for _, v := range vars {
		w, ok := box[v].Width()
		if !ok {
			widest = v
			break
		}
		if w.Sign() > 0 && (widestW == nil || w.Cmp(widestW) > 0) {
			widest, widestW = v, w
		}
	}
	if widest == "" {
		// All variables are points: evaluate exactly.
		point := map[string]*big.Rat{}
		for _, v := range vars {
			point[v] = new(big.Rat).Set(box[v].Lo.V)
		}
		for _, a := range cs {
			ok, err := a.Holds(point)
			if err != nil || !ok {
				return status.Unsat, nil
			}
		}
		return status.Sat, point
	}

	iv := box[widest]
	mid := interval.Floor(iv.Mid())
	midR := new(big.Rat).SetInt(mid)
	lower := interval.New(iv.Lo, interval.Finite(midR))
	upper := interval.New(interval.Finite(new(big.Rat).Add(midR, big.NewRat(1, 1))), iv.Hi)

	resL, mL := descend(cs, vars, box, widest, lower, st)
	if resL == status.Sat {
		return status.Sat, mL
	}
	resU, mU := descend(cs, vars, box, widest, upper, st)
	if resU == status.Sat {
		return status.Sat, mU
	}
	if resL == status.Unsat && resU == status.Unsat {
		return status.Unsat, nil
	}
	return status.Unknown, nil
}

func descend(cs poly.Case, vars []string, box map[string]interval.Interval, v string, iv interval.Interval, st *searchState) (status.Status, map[string]*big.Rat) {
	sub := make(map[string]interval.Interval, len(box))
	for k, b := range box {
		sub[k] = b
	}
	sub[v] = iv
	return branchPrune(cs, vars, sub, st)
}

// completeModel turns a rational case model into a full assignment for
// every declared variable, defaulting unconstrained integers to zero and
// booleans to false.
func completeModel(c *smt.Constraint, model map[string]*big.Rat) eval.Assignment {
	out := eval.Assignment{}
	for _, v := range c.Vars {
		switch v.Sort.Kind {
		case smt.KindInt:
			if r, ok := model[v.Name]; ok {
				out[v.Name] = eval.IntValue(ratToInt(r))
			} else {
				out[v.Name] = eval.IntValue64(0)
			}
		case smt.KindBool:
			out[v.Name] = eval.BoolValue(false)
		}
	}
	return out
}

func ratToInt(r *big.Rat) *big.Int {
	if r.IsInt() {
		return new(big.Int).Set(r.Num())
	}
	return interval.Floor(r)
}
