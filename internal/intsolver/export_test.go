package intsolver

import (
	"staub/internal/eval"
	"staub/internal/poly"
	"staub/internal/smt"
	"staub/internal/status"
)

// SolveReference is Solve with the int64 kernel bypassed: every nonlinear
// box runs on the big.Rat branchPrune, the reference the differential
// tests hold the kernel to.
func SolveReference(c *smt.Constraint, p Params) (status.Status, eval.Assignment, Stats) {
	st := &searchState{params: p.withDefaults(), reference: true}
	return st.solve(c)
}

// KernelPaths reports how the int64 kernel treats the first DNF case of c:
// whether its atoms compile, whether the kernel takes the case's root box
// (before any deepening), and whether evaluating its atoms at point
// overflows int64.
func KernelPaths(c *smt.Constraint, point map[string]int64) (compiles, rootFits, overflows bool) {
	cases, err := poly.DNFConstraint(c, 64)
	if err != nil || len(cases) == 0 {
		return false, false, false
	}
	cs := cases[0]
	vars := cs.Vars()
	cc := compileCase64(cs, vars)
	if cc == nil {
		return false, false, false
	}
	_, rootFits = cc.newKernel64(rootBox(cs, vars))
	x := make([]int64, len(vars))
	for i, v := range vars {
		x[i] = point[v]
	}
	for i := range cc.atoms {
		if _, ok := cc.atoms[i].eval(x); !ok {
			overflows = true
		}
	}
	return true, rootFits, overflows
}
