package simplex

import (
	"fmt"
	"math/big"
	"sort"

	"staub/internal/poly"
)

// Status is a simplex outcome.
type Status int

// Outcomes of Check.
const (
	Unknown Status = iota
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// Solver decides conjunctions of linear atoms over the rationals. Atoms
// are added with AddAtom (and AssertBounds for branch-and-bound); Check
// runs the general simplex. Solvers are single-goal but cheap to Clone for
// tree search.
type Solver struct {
	names   []string       // index → variable name ("" for slacks)
	index   map[string]int // structural variable name → index
	rows    map[int]map[int]*big.Rat
	lower   []bound
	upper   []bound
	beta    []Num
	isBasic []bool
	atoms   []poly.Atom // retained for δ resolution

	// PivotLimit bounds the number of pivots per Check; 0 means the
	// default. Exceeding it yields Unknown.
	PivotLimit int
}

// New returns an empty solver.
func New() *Solver {
	return &Solver{index: map[string]int{}, rows: map[int]map[int]*big.Rat{}}
}

// Clone returns an independent deep copy (for branch-and-bound).
func (s *Solver) Clone() *Solver {
	out := &Solver{
		names:      append([]string(nil), s.names...),
		index:      make(map[string]int, len(s.index)),
		rows:       make(map[int]map[int]*big.Rat, len(s.rows)),
		lower:      append([]bound(nil), s.lower...),
		upper:      append([]bound(nil), s.upper...),
		beta:       append([]Num(nil), s.beta...),
		isBasic:    append([]bool(nil), s.isBasic...),
		atoms:      append([]poly.Atom(nil), s.atoms...),
		PivotLimit: s.PivotLimit,
	}
	for k, v := range s.index {
		out.index[k] = v
	}
	for r, row := range s.rows {
		nr := make(map[int]*big.Rat, len(row))
		for c, coef := range row {
			nr[c] = new(big.Rat).Set(coef)
		}
		out.rows[r] = nr
	}
	return out
}

func (s *Solver) varIndex(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	i := s.newVar(name)
	s.index[name] = i
	return i
}

func (s *Solver) newVar(name string) int {
	i := len(s.names)
	s.names = append(s.names, name)
	s.lower = append(s.lower, bound{})
	s.upper = append(s.upper, bound{})
	s.beta = append(s.beta, Zero())
	s.isBasic = append(s.isBasic, false)
	return i
}

// AddAtom adds a linear atom p ⋈ 0. RelNe atoms are rejected (callers
// case-split them).
func (s *Solver) AddAtom(a poly.Atom) error {
	if !a.P.IsLinear() {
		return fmt.Errorf("simplex: nonlinear atom %v", a)
	}
	if a.Rel == poly.RelNe {
		return fmt.Errorf("simplex: disequality atom %v requires a case split", a)
	}
	s.atoms = append(s.atoms, a)

	// Build the row Σ c_i x_i; the constant moves to the bound side.
	// Variables are visited in sorted order: indices are assigned on first
	// sight, and Bland's rule pivots by index, so the iteration order here
	// must not depend on map order.
	constPart := a.P.ConstPart()
	row := map[int]*big.Rat{}
	for _, name := range a.P.Vars() {
		row[s.varIndex(name)] = new(big.Rat).Set(a.P.Coeff(name))
	}

	// Single-variable atoms tighten bounds directly.
	if len(row) == 1 {
		for vi, c := range row {
			// c*x + k ⋈ 0  →  x ⋈' -k/c
			rhs := new(big.Rat).Neg(constPart)
			rhs.Quo(rhs, c)
			flip := c.Sign() < 0
			s.assertAtomBound(vi, a.Rel, rhs, flip)
		}
		return nil
	}

	// General atom: introduce a slack basic variable equal to the linear
	// part.
	si := s.newVar("")
	s.isBasic[si] = true
	s.rows[si] = row
	rhs := new(big.Rat).Neg(constPart)
	s.assertAtomBound(si, a.Rel, rhs, false)
	return nil
}

// assertAtomBound applies "expr ⋈ rhs" (or flipped when the coefficient
// was negative) to variable vi.
func (s *Solver) assertAtomBound(vi int, rel poly.Rel, rhs *big.Rat, flip bool) {
	switch rel {
	case poly.RelEq:
		s.tightenLower(vi, Rat(rhs))
		s.tightenUpper(vi, Rat(rhs))
	case poly.RelLe:
		if flip {
			s.tightenLower(vi, Rat(rhs))
		} else {
			s.tightenUpper(vi, Rat(rhs))
		}
	case poly.RelLt:
		if flip {
			s.tightenLower(vi, NumOf(rhs, big.NewRat(1, 1)))
		} else {
			s.tightenUpper(vi, NumOf(rhs, big.NewRat(-1, 1)))
		}
	}
}

// AssertLower adds name >= v (δ-free) for branch-and-bound.
func (s *Solver) AssertLower(name string, v *big.Rat) {
	s.tightenLower(s.varIndex(name), Rat(v))
}

// AssertUpper adds name <= v (δ-free) for branch-and-bound.
func (s *Solver) AssertUpper(name string, v *big.Rat) {
	s.tightenUpper(s.varIndex(name), Rat(v))
}

func (s *Solver) tightenLower(vi int, v Num) {
	if !s.lower[vi].set || v.Cmp(s.lower[vi].val) > 0 {
		s.lower[vi] = bound{val: v, set: true}
	}
	if !s.isBasic[vi] && s.beta[vi].Cmp(s.lower[vi].val) < 0 {
		s.beta[vi] = s.lower[vi].val
	}
}

func (s *Solver) tightenUpper(vi int, v Num) {
	if !s.upper[vi].set || v.Cmp(s.upper[vi].val) < 0 {
		s.upper[vi] = bound{val: v, set: true}
	}
	if !s.isBasic[vi] && s.beta[vi].Cmp(s.upper[vi].val) > 0 {
		s.beta[vi] = s.upper[vi].val
	}
}

// computeBasics recomputes β for every basic variable from the rows.
func (s *Solver) computeBasics() {
	for bi, row := range s.rows {
		sum := Zero()
		for vi, c := range row {
			sum = sum.Add(s.beta[vi].Scale(c))
		}
		s.beta[bi] = sum
	}
}

// Check runs the simplex and returns the feasibility status.
func (s *Solver) Check() Status {
	// Bound sanity: a variable with lower > upper is immediately unsat.
	for vi := range s.names {
		if s.lower[vi].set && s.upper[vi].set && s.lower[vi].val.Cmp(s.upper[vi].val) > 0 {
			return Unsat
		}
	}
	limit := s.PivotLimit
	if limit == 0 {
		limit = 20000
	}
	for iter := 0; iter < limit; iter++ {
		s.computeBasics()
		// Find the smallest-index violating basic variable (Bland).
		viol, below := -1, false
		keys := make([]int, 0, len(s.rows))
		for bi := range s.rows {
			keys = append(keys, bi)
		}
		sort.Ints(keys)
		for _, bi := range keys {
			if s.lower[bi].set && s.beta[bi].Cmp(s.lower[bi].val) < 0 {
				viol, below = bi, true
				break
			}
			if s.upper[bi].set && s.beta[bi].Cmp(s.upper[bi].val) > 0 {
				viol, below = bi, false
				break
			}
		}
		if viol < 0 {
			return Sat
		}
		if !s.pivotFor(viol, below) {
			return Unsat
		}
	}
	return Unknown
}

// pivotFor finds an entering variable to fix the violated basic variable
// and pivots; it returns false when no entering variable exists (the
// constraint system is infeasible).
func (s *Solver) pivotFor(bi int, below bool) bool {
	row := s.rows[bi]
	cols := make([]int, 0, len(row))
	for vi := range row {
		cols = append(cols, vi)
	}
	sort.Ints(cols)
	for _, vi := range cols {
		c := row[vi]
		var canFix bool
		if below {
			// Need to increase x_bi: increase vi if c > 0 and vi below its
			// upper bound, or decrease vi if c < 0 and vi above its lower.
			canFix = (c.Sign() > 0 && (!s.upper[vi].set || s.beta[vi].Cmp(s.upper[vi].val) < 0)) ||
				(c.Sign() < 0 && (!s.lower[vi].set || s.beta[vi].Cmp(s.lower[vi].val) > 0))
		} else {
			canFix = (c.Sign() > 0 && (!s.lower[vi].set || s.beta[vi].Cmp(s.lower[vi].val) > 0)) ||
				(c.Sign() < 0 && (!s.upper[vi].set || s.beta[vi].Cmp(s.upper[vi].val) < 0))
		}
		if !canFix {
			continue
		}
		target := s.lower[bi].val
		if !below {
			target = s.upper[bi].val
		}
		s.pivot(bi, vi, target)
		return true
	}
	return false
}

// pivot makes vi basic and bi nonbasic, setting bi's value to target and
// solving bi's row for vi.
func (s *Solver) pivot(bi, vi int, target Num) {
	row := s.rows[bi]
	a := row[vi]
	inv := new(big.Rat).Inv(a)

	// x_bi = Σ c_j x_j  →  x_vi = (x_bi - Σ_{j≠vi} c_j x_j) / a
	newRow := map[int]*big.Rat{bi: new(big.Rat).Set(inv)}
	for j, c := range row {
		if j == vi {
			continue
		}
		nc := new(big.Rat).Mul(c, inv)
		nc.Neg(nc)
		newRow[j] = nc
	}
	delete(s.rows, bi)
	s.rows[vi] = newRow
	s.isBasic[bi] = false
	s.isBasic[vi] = true
	s.beta[bi] = target

	// Substitute x_vi in every other row.
	for r, rr := range s.rows {
		if r == vi {
			continue
		}
		c, ok := rr[vi]
		if !ok {
			continue
		}
		delete(rr, vi)
		for j, nc := range newRow {
			t := new(big.Rat).Mul(c, nc)
			if old, ok := rr[j]; ok {
				old.Add(old, t)
				if old.Sign() == 0 {
					delete(rr, j)
				}
			} else if t.Sign() != 0 {
				rr[j] = t
			}
		}
	}
}

// Model extracts a rational model after Sat, resolving δ to a concrete
// positive rational small enough that every atom holds.
func (s *Solver) Model() map[string]*big.Rat {
	s.computeBasics()
	delta := big.NewRat(1, 1)
	for tries := 0; tries < 128; tries++ {
		model := map[string]*big.Rat{}
		for name, vi := range s.index {
			model[name] = s.beta[vi].Resolve(delta)
		}
		ok := true
		for _, a := range s.atoms {
			holds, err := a.Holds(model)
			if err != nil || !holds {
				ok = false
				break
			}
		}
		if ok {
			return model
		}
		delta.Quo(delta, big.NewRat(2, 1))
	}
	// δ resolution failed (should not happen for a Sat tableau); return
	// the standard parts.
	model := map[string]*big.Rat{}
	for name, vi := range s.index {
		model[name] = new(big.Rat).Set(s.beta[vi].A)
	}
	return model
}

// Value returns the current δ-rational value of a structural variable.
func (s *Solver) Value(name string) (Num, bool) {
	vi, ok := s.index[name]
	if !ok {
		return Zero(), false
	}
	s.computeBasics()
	return s.beta[vi], true
}

// LinearSubsetUnsat reports whether the linear atoms of cs alone are
// infeasible over the rationals, which refutes cs over the integers too.
// The unbounded engines run it before any nonlinear reasoning, as
// solvers discharge the linear core first.
func LinearSubsetUnsat(cs poly.Case) bool {
	sx := New()
	n := 0
	for _, a := range cs {
		if a.P.IsLinear() && a.Rel != poly.RelNe {
			if err := sx.AddAtom(a); err == nil {
				n++
			}
		}
	}
	return n > 0 && sx.Check() == Unsat
}
