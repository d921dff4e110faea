package intsolver

import (
	"cmp"
	"math"
	"math/big"
	"sort"

	"staub/internal/interval"
	"staub/internal/poly"
	"staub/internal/status"
)

// box64Limit bounds the endpoints the int64 kernel accepts: with every
// |lo|, |hi| <= 2^61, neither lo+hi nor hi-lo can overflow.
const box64Limit = 1 << 61

// term64 is one monomial of a compiled atom: coef · Π x[vars[i]], the
// variables as indices into the case's variable order, with multiplicity.
type term64 struct {
	coef int64
	vars []int
}

// atom64 is a polynomial atom compiled for int64 evaluation. src is the
// atom itself: its relation, and the exact fallback when an evaluation
// overflows.
type atom64 struct {
	terms []term64
	src   poly.Atom
}

// case64 is a case compiled once for the int64 kernel: its atoms in case
// order over its variables in cs.Vars() order.
type case64 struct {
	vars  []string
	atoms []atom64
}

// compileCase64 compiles the atoms of cs over vars, or returns nil when a
// coefficient is not an int64 integer (the case then runs on branchPrune).
func compileCase64(cs poly.Case, vars []string) *case64 {
	index := make(map[string]int, len(vars))
	for i, v := range vars {
		index[v] = i
	}
	cc := &case64{vars: vars, atoms: make([]atom64, len(cs))}
	for i, a := range cs {
		// Sorted monomials make the int64 summation order, and with it
		// which evaluations overflow, independent of map iteration.
		monos := make([]string, 0, len(a.P))
		for m := range a.P {
			monos = append(monos, string(m))
		}
		sort.Strings(monos)
		terms := make([]term64, len(monos))
		for j, m := range monos {
			c := a.P[poly.Monomial(m)]
			if !c.IsInt() || !c.Num().IsInt64() {
				return nil
			}
			terms[j].coef = c.Num().Int64()
			for _, v := range poly.Monomial(m).Vars() {
				terms[j].vars = append(terms[j].vars, index[v])
			}
		}
		cc.atoms[i] = atom64{terms: terms, src: a}
	}
	return cc
}

// kernel64 is one branch-and-prune run of the int64 kernel: the box as
// lo/hi per variable, split in place and restored on return.
type kernel64 struct {
	cc     *case64
	lo, hi []int64
	model  map[string]*big.Rat
}

// newKernel64 loads box into a kernel, or reports false when an endpoint
// is not an integer within ±2^61.
func (cc *case64) newKernel64(box map[string]interval.Interval) (*kernel64, bool) {
	k := &kernel64{cc: cc, lo: make([]int64, len(cc.vars)), hi: make([]int64, len(cc.vars))}
	for i, v := range cc.vars {
		iv := box[v]
		var ok bool
		if k.lo[i], ok = endpoint64(iv.Lo); !ok {
			return nil, false
		}
		if k.hi[i], ok = endpoint64(iv.Hi); !ok {
			return nil, false
		}
	}
	return k, true
}

func endpoint64(e interval.Endpoint) (int64, bool) {
	if !e.IsFinite() || !e.V.IsInt() || !e.V.Num().IsInt64() {
		return 0, false
	}
	n := e.V.Num().Int64()
	return n, -box64Limit <= n && n <= box64Limit
}

// search is branchPrune on the int64 box, node for node: one spend per
// node, the empty check first, the widest variable by strict > (ties to
// the first), the split at floor((lo+hi)/2) with the lower half first,
// and point leaves checked atom by atom in case order.
func (k *kernel64) search(st *searchState) status.Status {
	if !st.spend(1) {
		return status.Unknown
	}
	for i := range k.lo {
		if k.lo[i] > k.hi[i] {
			return status.Unsat
		}
	}
	widest, widestW := -1, int64(0)
	for i := range k.lo {
		if w := k.hi[i] - k.lo[i]; w > 0 && (widest < 0 || w > widestW) {
			widest, widestW = i, w
		}
	}
	if widest < 0 {
		if !k.pointHolds() {
			return status.Unsat
		}
		k.model = k.point()
		return status.Sat
	}

	lo, hi := k.lo[widest], k.hi[widest]
	mid := (lo + hi) >> 1 // arithmetic shift: the floor, also below zero
	k.hi[widest] = mid
	resL := k.search(st)
	k.hi[widest] = hi
	if resL == status.Sat {
		return status.Sat
	}
	k.lo[widest] = mid + 1
	resU := k.search(st)
	k.lo[widest] = lo
	if resU == status.Sat {
		return status.Sat
	}
	if resL == status.Unsat && resU == status.Unsat {
		return status.Unsat
	}
	return status.Unknown
}

// pointHolds checks every atom at the point box (lo == hi), falling back
// to the exact poly.Atom.Holds for an atom whose evaluation overflows.
func (k *kernel64) pointHolds() bool {
	for i := range k.cc.atoms {
		a := &k.cc.atoms[i]
		v, ok := a.eval(k.lo)
		if !ok {
			if holds, err := a.src.Holds(k.point()); err != nil || !holds {
				return false
			}
			continue
		}
		if !a.src.Rel.Satisfied(cmp.Compare(v, 0)) {
			return false
		}
	}
	return true
}

// eval evaluates the atom's polynomial at x, reporting false on int64
// overflow.
func (a *atom64) eval(x []int64) (int64, bool) {
	var sum int64
	for _, t := range a.terms {
		p := t.coef
		for _, v := range t.vars {
			var ok bool
			if p, ok = mul64(p, x[v]); !ok {
				return 0, false
			}
		}
		s := sum + p
		if (s^sum)&(s^p) < 0 { // both operands' signs differ from the sum's
			return 0, false
		}
		sum = s
	}
	return sum, true
}

func mul64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a || (a == math.MinInt64 && b == -1) {
		return 0, false
	}
	return p, true
}

// point returns the point box as the rational assignment branchPrune
// builds.
func (k *kernel64) point() map[string]*big.Rat {
	out := make(map[string]*big.Rat, len(k.lo))
	for i, v := range k.cc.vars {
		out[v] = new(big.Rat).SetInt64(k.lo[i])
	}
	return out
}
