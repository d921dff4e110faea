package overapprox

import (
	"fmt"
	"math/big"

	"staub/internal/eval"
	"staub/internal/interval"
	"staub/internal/pipeline"
	"staub/internal/smt"
)

// passLinearizeNIA rewrites every nonlinear product in the constraint
// into a fresh product variable constrained by eagerly instantiated
// axioms that are valid consequences of real multiplication: any model of
// the original extends to the abstraction by assigning each product
// variable its product's value, so the abstraction admits a superset of
// the original's solutions and its unsat refutes the original (DirOver).
//
// Multiplication by constants stays linear: factors are flattened across
// nested products, literal factors (including negated literals) are
// folded into one coefficient, and only terms with two or more
// non-constant factors are abstracted. Constraints with no such products
// pass through untouched — the pass composes no direction and the chain
// stays exact.
func passLinearizeNIA(st *pipeline.State) pipeline.Verdict {
	if v, injected := checkSite(st, siteLinearize); injected {
		return v
	}
	src := st.Original
	if !hasNonlinearMul(src) {
		st.SpanNote = "no nonlinear products"
		return pipeline.Continue
	}
	abs, back, products, err := linearize(src)
	if err != nil {
		return pipeline.FailTransform(st, err)
	}
	st.Abstracted = abs
	st.AbstractBack = back
	st.Direction = pipeline.ComposeDirection(st.Direction, pipeline.DirOver)
	st.SpanWork = int64(src.NumNodes())
	st.SpanNote = fmt.Sprintf("%d products abstracted", products)
	return pipeline.Continue
}

// hasNonlinearMul reports whether any multiplication in c keeps two or
// more non-constant factors after constant folding.
func hasNonlinearMul(c *smt.Constraint) bool {
	nonlinear := false
	for _, a := range c.Assertions {
		a.Walk(func(t *smt.Term) bool {
			if t.Op == smt.OpMul && countNonConstFactors(t) >= 2 {
				nonlinear = true
				return false
			}
			return true
		})
		if nonlinear {
			break
		}
	}
	return nonlinear
}

// countNonConstFactors counts the non-literal factors of a product,
// flattening nested multiplications.
func countNonConstFactors(t *smt.Term) int {
	n := 0
	var walk func(u *smt.Term)
	walk = func(u *smt.Term) {
		if u.Op == smt.OpMul {
			for _, a := range u.Args {
				walk(a)
			}
			return
		}
		if !isLiteral(u) {
			n++
		}
	}
	walk(t)
	return n
}

// isLiteral reports whether t is a numeric literal, including a negated
// literal as parsers may leave (- 5) unfolded.
func isLiteral(t *smt.Term) bool {
	if t.Op == smt.OpNeg {
		return isLiteral(t.Args[0])
	}
	return t.Op == smt.OpIntConst || t.Op == smt.OpRealConst
}

// prodEntry records one abstracted product m = a*b (terms in the
// abstraction's builder), in creation order — inner products precede the
// products consuming them, so interval derivation chains bottom-up.
type prodEntry struct {
	m, a, b *smt.Term
}

type linearizer struct {
	src   *smt.Constraint
	out   *smt.Constraint
	memo  map[*smt.Term]*smt.Term
	prods map[[2]int]*smt.Term // product variable by factor term IDs (ordered)
	list  []prodEntry
	fresh int
}

// linearize builds the linear abstraction of c: assertions rewritten with
// products abstracted, then the axiom block for every product variable.
// It returns the abstraction, the model projection back onto c's
// variables, and the number of abstracted products.
func linearize(c *smt.Constraint) (*smt.Constraint, func(eval.Assignment) (eval.Assignment, error), int, error) {
	out := smt.NewConstraint(c.Logic)
	for _, v := range c.Vars {
		if _, err := out.Declare(v.Name, v.Sort); err != nil {
			return nil, nil, 0, fmt.Errorf("overapprox: %w", err)
		}
	}
	ln := &linearizer{
		src:   c,
		out:   out,
		memo:  make(map[*smt.Term]*smt.Term, c.NumNodes()),
		prods: map[[2]int]*smt.Term{},
	}
	for _, a := range c.Assertions {
		r, err := ln.rewrite(a)
		if err != nil {
			return nil, nil, 0, err
		}
		if err := out.Assert(r); err != nil {
			return nil, nil, 0, fmt.Errorf("overapprox: %w", err)
		}
	}
	ln.emitAxioms()

	orig := make(map[string]bool, len(c.Vars))
	for _, v := range c.Vars {
		orig[v.Name] = true
	}
	back := func(m eval.Assignment) (eval.Assignment, error) {
		projected := make(eval.Assignment, len(orig))
		for name, val := range m {
			if orig[name] {
				projected[name] = val
			}
		}
		return projected, nil
	}
	return out, back, len(ln.list), nil
}

// rewrite maps a term of the source constraint into the abstraction's
// builder, abstracting nonlinear products along the way.
func (ln *linearizer) rewrite(t *smt.Term) (*smt.Term, error) {
	if r, ok := ln.memo[t]; ok {
		return r, nil
	}
	var (
		r   *smt.Term
		err error
	)
	switch t.Op {
	case smt.OpVar:
		r, err = ln.out.Builder.Var(t.Name, t.Sort)
	case smt.OpIntConst:
		r = ln.out.Builder.IntBig(t.IntVal)
	case smt.OpRealConst:
		r = ln.out.Builder.RealRat(t.RatVal)
	case smt.OpTrue:
		r = ln.out.Builder.True()
	case smt.OpFalse:
		r = ln.out.Builder.False()
	case smt.OpBVConst, smt.OpFPConst:
		return nil, fmt.Errorf("overapprox: bounded-sort literal outside the linearization fragment")
	case smt.OpMul:
		r, err = ln.rewriteMul(t)
	default:
		args := make([]*smt.Term, len(t.Args))
		for i, a := range t.Args {
			args[i], err = ln.rewrite(a)
			if err != nil {
				return nil, err
			}
		}
		r, err = ln.out.Builder.Apply(t.Op, args...)
	}
	if err != nil {
		return nil, fmt.Errorf("overapprox: %w", err)
	}
	ln.memo[t] = r
	return r, nil
}

// rewriteMul rewrites a product: arguments are rewritten first (inner
// nonlinear products become product variables), nested linear products
// are flattened, literal factors fold into one constant coefficient, and
// what remains is either rebuilt linear (at most one non-constant factor)
// or binarized left-associatively into product variables.
func (ln *linearizer) rewriteMul(t *smt.Term) (*smt.Term, error) {
	b := ln.out.Builder
	isInt := t.Sort.Kind == smt.KindInt
	ci := big.NewInt(1)
	cr := big.NewRat(1, 1)
	var factors []*smt.Term

	var collect func(u *smt.Term) error
	collect = func(u *smt.Term) error {
		if u.Op == smt.OpMul {
			for _, a := range u.Args {
				if err := collect(a); err != nil {
					return err
				}
			}
			return nil
		}
		r, err := ln.rewrite(u)
		if err != nil {
			return err
		}
		if v, ok := intLiteral(r); ok {
			ci.Mul(ci, v)
			return nil
		}
		if v, ok := realLiteral(r); ok {
			cr.Mul(cr, v)
			return nil
		}
		factors = append(factors, r)
		return nil
	}
	for _, a := range t.Args {
		if err := collect(a); err != nil {
			return nil, err
		}
	}

	var coeff *smt.Term
	unit := true
	if isInt {
		if ci.Cmp(big.NewInt(1)) != 0 {
			coeff, unit = b.IntBig(ci), false
		}
	} else {
		if cr.Cmp(big.NewRat(1, 1)) != 0 {
			coeff, unit = b.RealRat(cr), false
		}
	}
	switch len(factors) {
	case 0:
		if unit {
			if isInt {
				return b.IntBig(ci), nil
			}
			return b.RealRat(cr), nil
		}
		return coeff, nil
	case 1:
		if unit {
			return factors[0], nil
		}
		return b.Apply(smt.OpMul, coeff, factors[0])
	}
	p := factors[0]
	for _, f := range factors[1:] {
		var err error
		p, err = ln.productVar(p, f)
		if err != nil {
			return nil, err
		}
	}
	if unit {
		return p, nil
	}
	return b.Apply(smt.OpMul, coeff, p)
}

// intLiteral extracts the value of an integer literal (negations
// included); realLiteral is its real counterpart.
func intLiteral(t *smt.Term) (*big.Int, bool) {
	if t.Op == smt.OpNeg {
		if v, ok := intLiteral(t.Args[0]); ok {
			return new(big.Int).Neg(v), true
		}
		return nil, false
	}
	if t.Op == smt.OpIntConst {
		return t.IntVal, true
	}
	return nil, false
}

func realLiteral(t *smt.Term) (*big.Rat, bool) {
	if t.Op == smt.OpNeg {
		if v, ok := realLiteral(t.Args[0]); ok {
			return new(big.Rat).Neg(v), true
		}
		return nil, false
	}
	if t.Op == smt.OpRealConst {
		return t.RatVal, true
	}
	return nil, false
}

// productVar returns the fresh variable standing for a*b, reusing one
// product variable per unordered factor pair (multiplication commutes).
func (ln *linearizer) productVar(a, b *smt.Term) (*smt.Term, error) {
	if a.Sort != b.Sort {
		return nil, fmt.Errorf("overapprox: mixed-sort product %v * %v", a.Sort, b.Sort)
	}
	x, y := a.ID(), b.ID()
	if x > y {
		x, y = y, x
		a, b = b, a
	}
	key := [2]int{x, y}
	if m, ok := ln.prods[key]; ok {
		return m, nil
	}
	var name string
	for {
		name = fmt.Sprintf("_staub_mul_%d", ln.fresh)
		ln.fresh++
		if _, taken := ln.out.Builder.LookupVar(name); !taken {
			break
		}
	}
	m, err := ln.out.Declare(name, a.Sort)
	if err != nil {
		return nil, fmt.Errorf("overapprox: %w", err)
	}
	ln.prods[key] = m
	ln.list = append(ln.list, prodEntry{m: m, a: a, b: b})
	return m, nil
}

// emitAxioms asserts, for every product variable m = a*b, the eager
// instantiation block. Every axiom is a valid fact about multiplication
// over the product's sort, so asserting them preserves the
// over-approximation: a model of the original always extends to the
// abstraction.
//
//   - zero:      a = 0 ⇒ m = 0 (and symmetrically for b)
//   - sign:      the four quadrant rules (e.g. a > 0 ∧ b > 0 ⇒ m > 0)
//   - unit:      a = ±1 ⇒ m = ±b (and symmetrically)
//   - magnitude: |a| ≥ 1 ∧ |b| ≥ 1 bounds m away from both factors in
//     the quadrant's direction (valid for reals too: b ≥ 1 scales a up)
//   - squares:   m ≥ 0, and over the integers m ≥ a and m ≥ -a
//   - intervals: factors bounded by the constraint's own single-variable
//     atoms give m a concrete [lo, hi] — the hook that lets the a-priori
//     pass certify bounded nonlinear instances
func (ln *linearizer) emitAxioms() {
	if len(ln.list) == 0 {
		return
	}
	iv := deriveIntervals(ln.out.Vars, ln.out.Assertions)
	b := ln.out.Builder
	for _, p := range ln.list {
		m, x, y := p.m, p.a, p.b
		isInt := m.Sort.Kind == smt.KindInt
		var zero, one, negOne *smt.Term
		if isInt {
			zero, one, negOne = b.Int(0), b.Int(1), b.Int(-1)
		} else {
			zero, one, negOne = b.Real(0, 1), b.Real(1, 1), b.Real(-1, 1)
		}
		square := x == y

		// Zero annihilation.
		ln.out.MustAssert(b.Implies(b.Eq(x, zero), b.Eq(m, zero)))
		if !square {
			ln.out.MustAssert(b.Implies(b.Eq(y, zero), b.Eq(m, zero)))
		}
		// Quadrant signs.
		ln.out.MustAssert(b.Implies(b.And(b.Gt(x, zero), b.Gt(y, zero)), b.Gt(m, zero)))
		ln.out.MustAssert(b.Implies(b.And(b.Lt(x, zero), b.Lt(y, zero)), b.Gt(m, zero)))
		if !square {
			ln.out.MustAssert(b.Implies(b.And(b.Gt(x, zero), b.Lt(y, zero)), b.Lt(m, zero)))
			ln.out.MustAssert(b.Implies(b.And(b.Lt(x, zero), b.Gt(y, zero)), b.Lt(m, zero)))
		}
		// Units.
		ln.out.MustAssert(b.Implies(b.Eq(x, one), b.Eq(m, y)))
		ln.out.MustAssert(b.Implies(b.Eq(x, negOne), b.Eq(m, b.Neg(y))))
		if !square {
			ln.out.MustAssert(b.Implies(b.Eq(y, one), b.Eq(m, x)))
			ln.out.MustAssert(b.Implies(b.Eq(y, negOne), b.Eq(m, b.Neg(x))))
		}
		// Quadrant magnitudes.
		ln.out.MustAssert(b.Implies(b.And(b.Ge(x, one), b.Ge(y, one)), b.And(b.Ge(m, x), b.Ge(m, y))))
		ln.out.MustAssert(b.Implies(b.And(b.Le(x, negOne), b.Le(y, negOne)), b.And(b.Ge(m, b.Neg(x)), b.Ge(m, b.Neg(y)))))
		if !square {
			ln.out.MustAssert(b.Implies(b.And(b.Ge(x, one), b.Le(y, negOne)), b.And(b.Le(m, b.Neg(x)), b.Le(m, y))))
			ln.out.MustAssert(b.Implies(b.And(b.Le(x, negOne), b.Ge(y, one)), b.And(b.Le(m, x), b.Le(m, b.Neg(y)))))
		}
		// Squares.
		if square {
			ln.out.MustAssert(b.Ge(m, zero))
			if isInt {
				ln.out.MustAssert(b.Ge(m, x))
				ln.out.MustAssert(b.Ge(m, b.Neg(x)))
			}
		}
		// Interval product: both factors bounded gives the product a
		// concrete range, recorded so nested products chain.
		if isInt {
			if bounds, ok := productInterval(iv, x, y); ok {
				ln.out.MustAssert(b.Ge(m, b.IntBig(bounds.Lo.V.Num())))
				ln.out.MustAssert(b.Le(m, b.IntBig(bounds.Hi.V.Num())))
				iv[m.Name] = bounds
			}
		}
	}
}

// productInterval multiplies the factors' intervals when both factors are
// integer variables with finite bounds; false when no concrete range is
// derivable.
func productInterval(iv map[string]interval.Interval, a, b *smt.Term) (interval.Interval, bool) {
	for _, f := range []*smt.Term{a, b} {
		if f.Op != smt.OpVar || f.Sort.Kind != smt.KindInt {
			return interval.Interval{}, false
		}
		if _, finite := iv[f.Name].Width(); !finite {
			return interval.Interval{}, false
		}
	}
	return iv[a.Name].Mul(iv[b.Name]), true
}
