package poly

import (
	"fmt"
	"math/big"
	"sort"

	"staub/internal/interval"
	"staub/internal/smt"
)

// Case is a conjunction of atoms.
type Case []Atom

// UnitBox is the box over vars that the case's linear atoms over a single
// variable (c·x + k ⋈ 0) carve out of the unbounded one. It leaves
// integrality to the caller and nonlinear atoms to pruning.
func (cs Case) UnitBox(vars []string) map[string]interval.Interval {
	box := make(map[string]interval.Interval, len(vars))
	for _, v := range vars {
		box[v] = interval.Full()
	}
	for _, a := range cs {
		names := a.P.Vars()
		if len(names) != 1 || !a.P.IsLinear() {
			continue
		}
		name := names[0]
		coef := a.P.Coeff(name)
		if coef == nil || coef.Sign() == 0 {
			continue
		}
		// coef*x + k ⋈ 0  →  x ⋈' rhs
		rhs := new(big.Rat).Neg(a.P.ConstPart())
		rhs.Quo(rhs, coef)
		iv := box[name]
		switch a.Rel {
		case RelEq:
			iv = iv.Intersect(interval.Point(rhs))
		case RelLe, RelLt:
			if coef.Sign() < 0 {
				iv = iv.Intersect(interval.New(interval.Finite(rhs), interval.PosInf()))
			} else {
				iv = iv.Intersect(interval.New(interval.NegInf(), interval.Finite(rhs)))
			}
		}
		box[name] = iv
	}
	return box
}

// DNF converts a boolean term over numeric atoms into disjunctive normal
// form: a list of cases whose disjunction is equivalent to the input.
// maxCases bounds the blowup; exceeding it is an error (the caller should
// report unknown). Boolean variables are not supported — the unbounded
// logics' benchmark constraints are purely arithmetic.
func DNF(t *smt.Term, maxCases int) ([]Case, error) {
	d := &dnfBuilder{maxCases: maxCases}
	return d.build(t, false)
}

// DNFConstraint converts every assertion of c and conjoins them.
func DNFConstraint(c *smt.Constraint, maxCases int) ([]Case, error) {
	cases := []Case{{}}
	d := &dnfBuilder{maxCases: maxCases}
	for _, a := range c.Assertions {
		sub, err := d.build(a, false)
		if err != nil {
			return nil, err
		}
		cases, err = d.conjoin(cases, sub)
		if err != nil {
			return nil, err
		}
	}
	return cases, nil
}

type dnfBuilder struct {
	maxCases int
}

func (d *dnfBuilder) conjoin(a, b []Case) ([]Case, error) {
	if len(a)*len(b) > d.maxCases {
		return nil, fmt.Errorf("poly: DNF exceeds %d cases", d.maxCases)
	}
	out := make([]Case, 0, len(a)*len(b))
	for _, ca := range a {
		for _, cb := range b {
			merged := make(Case, 0, len(ca)+len(cb))
			merged = append(merged, ca...)
			merged = append(merged, cb...)
			out = append(out, merged)
		}
	}
	return out, nil
}

// build returns the DNF of t (negated if neg).
func (d *dnfBuilder) build(t *smt.Term, neg bool) ([]Case, error) {
	switch t.Op {
	case smt.OpTrue:
		if neg {
			return nil, nil
		}
		return []Case{{}}, nil
	case smt.OpFalse:
		if neg {
			return []Case{{}}, nil
		}
		return nil, nil
	case smt.OpNot:
		return d.build(t.Args[0], !neg)
	case smt.OpAnd, smt.OpOr:
		isAnd := (t.Op == smt.OpAnd) != neg
		if isAnd {
			out := []Case{{}}
			for _, a := range t.Args {
				sub, err := d.build(a, neg)
				if err != nil {
					return nil, err
				}
				out, err = d.conjoin(out, sub)
				if err != nil {
					return nil, err
				}
			}
			return out, nil
		}
		var out []Case
		for _, a := range t.Args {
			sub, err := d.build(a, neg)
			if err != nil {
				return nil, err
			}
			out = append(out, sub...)
			if len(out) > d.maxCases {
				return nil, fmt.Errorf("poly: DNF exceeds %d cases", d.maxCases)
			}
		}
		return out, nil
	case smt.OpImplies:
		// a => b  ==  ¬a ∨ b (right associative for more args).
		cur, err := d.build(t.Args[len(t.Args)-1], neg)
		if err != nil {
			return nil, err
		}
		for i := len(t.Args) - 2; i >= 0; i-- {
			anteNeg, err := d.build(t.Args[i], !neg)
			if err != nil {
				return nil, err
			}
			if !neg {
				// ¬a ∨ cur
				cur = append(cur, anteNeg...)
				if len(cur) > d.maxCases {
					return nil, fmt.Errorf("poly: DNF exceeds %d cases", d.maxCases)
				}
			} else {
				// ¬(a => b) == a ∧ ¬b; anteNeg here is DNF of a.
				cur, err = d.conjoin(anteNeg, cur)
				if err != nil {
					return nil, err
				}
			}
		}
		return cur, nil
	case smt.OpXor:
		if len(t.Args) != 2 {
			return nil, fmt.Errorf("poly: n-ary xor is not supported")
		}
		// a xor b == (a ∧ ¬b) ∨ (¬a ∧ b); negation flips to equivalence.
		a1, err := d.build(t.Args[0], false)
		if err != nil {
			return nil, err
		}
		a0, err := d.build(t.Args[0], true)
		if err != nil {
			return nil, err
		}
		b1, err := d.build(t.Args[1], false)
		if err != nil {
			return nil, err
		}
		b0, err := d.build(t.Args[1], true)
		if err != nil {
			return nil, err
		}
		var left, right []Case
		if !neg {
			left, err = d.conjoin(a1, b0)
			if err != nil {
				return nil, err
			}
			right, err = d.conjoin(a0, b1)
		} else {
			left, err = d.conjoin(a1, b1)
			if err != nil {
				return nil, err
			}
			right, err = d.conjoin(a0, b0)
		}
		if err != nil {
			return nil, err
		}
		return append(left, right...), nil
	case smt.OpIte:
		if t.Sort.Kind != smt.KindBool {
			return nil, fmt.Errorf("poly: numeric ite is not supported in atoms")
		}
		cPos, err := d.build(t.Args[0], false)
		if err != nil {
			return nil, err
		}
		cNeg, err := d.build(t.Args[0], true)
		if err != nil {
			return nil, err
		}
		thenB, err := d.build(t.Args[1], neg)
		if err != nil {
			return nil, err
		}
		elseB, err := d.build(t.Args[2], neg)
		if err != nil {
			return nil, err
		}
		left, err := d.conjoin(cPos, thenB)
		if err != nil {
			return nil, err
		}
		right, err := d.conjoin(cNeg, elseB)
		if err != nil {
			return nil, err
		}
		return append(left, right...), nil
	case smt.OpEq, smt.OpLe, smt.OpLt, smt.OpGe, smt.OpGt, smt.OpDistinct:
		return d.atomCases(t, neg)
	}
	return nil, fmt.Errorf("poly: unsupported boolean structure %v", t.Op)
}

func (d *dnfBuilder) atomCases(t *smt.Term, neg bool) ([]Case, error) {
	atoms, err := AtomFromTerm(t)
	if err != nil {
		return nil, err
	}
	if !neg {
		return []Case{Case(atoms)}, nil
	}
	// ¬(a1 ∧ a2 ∧ ...) == ¬a1 ∨ ¬a2 ∨ ...
	out := make([]Case, 0, len(atoms))
	for _, a := range atoms {
		out = append(out, Case{negateAtom(a)})
	}
	return out, nil
}

// SplitNe rewrites every disequality atom in a case into two strict
// cases (p < 0 and p > 0), multiplying the case out. The result contains
// no RelNe atoms, which the simplex core requires.
func SplitNe(c Case, maxCases int) ([]Case, error) {
	out := []Case{{}}
	for _, a := range c {
		if a.Rel != RelNe {
			for i := range out {
				out[i] = append(out[i], a)
			}
			continue
		}
		lt := Atom{P: a.P, Rel: RelLt}
		gt := Atom{P: a.P.Neg(), Rel: RelLt}
		next := make([]Case, 0, 2*len(out))
		for _, oc := range out {
			c1 := append(append(Case{}, oc...), lt)
			c2 := append(append(Case{}, oc...), gt)
			next = append(next, c1, c2)
		}
		if len(next) > maxCases {
			return nil, fmt.Errorf("poly: disequality split exceeds %d cases", maxCases)
		}
		out = next
	}
	return out, nil
}

// Vars returns the distinct variables over all atoms in the case, sorted:
// the solvers branch in slice order, so the order must not depend on map
// iteration.
func (c Case) Vars() []string {
	set := map[string]bool{}
	for _, a := range c {
		for _, v := range a.P.Vars() {
			set[v] = true
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// MaxDegree returns the maximum polynomial degree in the case.
func (c Case) MaxDegree() int {
	d := 0
	for _, a := range c {
		if ad := a.P.Degree(); ad > d {
			d = ad
		}
	}
	return d
}
