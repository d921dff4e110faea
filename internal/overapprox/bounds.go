package overapprox

import (
	"errors"
	"fmt"
	"math/big"

	"staub/internal/absint"
	"staub/internal/interval"
	"staub/internal/pipeline"
	"staub/internal/poly"
	"staub/internal/smt"
	"staub/internal/translate"
)

// passInferApriori makes the bounded solve COMPLETE for the translation
// source (the linear abstraction when linearize-nia installed one, the
// original otherwise), so that bounded-unsat soundly refutes it:
//
//  1. Interval propagation over the source's linear atoms. If every
//     integer variable acquires finite bounds, a bitvector width large
//     enough for every value and intermediate (sound abstract semantics,
//     Theorem 4.5) exists; when it fits the configured ceiling the width
//     is certified and translation composes DirExact.
//  2. When variables stay unbounded but the whole source is a system of
//     linear atoms, the Papadimitriou small-model bound still yields a
//     complete width — almost always past the ceiling, but exact when it
//     is not.
//  3. Otherwise, with an abstraction in hand, the pass routes around
//     translation entirely (SkipTranslate): the linear abstraction is
//     solved by the unbounded linear engines, whose unsat refutes the
//     original through the abstraction's DirOver. That is still theory
//     arbitrage — undecidable NIA/NRA traded for decidable linear
//     arithmetic.
//
// A width ceiling is never clamped through: a clamped width destroys the
// completeness certificate the sound unsat rests on, so the pass reverts
// (transform-failed) instead. Constraints using integer div/mod are never
// certified — bvsdiv truncates where SMT-LIB div is Euclidean, so the
// translation is not exact for them at any width.
func passInferApriori(st *pipeline.State) pipeline.Verdict {
	if v, injected := checkSite(st, siteBounds); injected {
		return v
	}
	src := st.Original
	if st.Abstracted != nil {
		src = st.Abstracted
	}
	kind, err := translate.Classify(src)
	if err != nil {
		return pipeline.FailTransform(st, fmt.Errorf("overapprox: %w", err))
	}
	st.Kind = kind
	st.SpanWork = int64(src.NumNodes())
	if kind == translate.KindRealToFP {
		// Real constraints never certify: FP rounding both adds and
		// removes solutions, so no float sort is exact. A linearized
		// nonlinear real constraint still profits from the linear
		// fallback; a linear one is already the simplex leg's home turf.
		if st.Abstracted == nil {
			return pipeline.FailTransform(st, errors.New("overapprox: no arbitrage for linear real constraints (no exact bounded sort exists)"))
		}
		st.Abstracted = dnfFriendly(st.Abstracted)
		st.SkipTranslate = true
		st.SpanNote = "linear fallback (real)"
		return pipeline.Continue
	}
	if !usesIntDivMod(src) {
		if width, hints, root, ok := certify(src); ok {
			st.Width = width
			st.Hints = hints
			st.Root = root
			st.WidthCertified = true
			st.SpanNote = fmt.Sprintf("certified width=%d root=%d", width, root)
			return pipeline.Continue
		}
	}
	if st.Abstracted != nil {
		st.Abstracted = dnfFriendly(st.Abstracted)
		st.SkipTranslate = true
		st.SpanNote = "linear fallback (int)"
		return pipeline.Continue
	}
	return pipeline.FailTransform(st, errors.New("overapprox: no a-priori bound certificate and no abstraction to fall back to"))
}

// dnfFriendly trims top-level implications from the abstraction before
// the linear-fallback solve: the unbounded engines expand boolean
// structure to DNF under a small case cap, and the eager axiom block is
// implication-heavy enough to blow past it on every instance. Dropping
// assertions only enlarges the solution set, so the over-approximation
// direction survives; the unconditional axioms (squares, interval
// products) carry the refutations this path targets.
func dnfFriendly(c *smt.Constraint) *smt.Constraint {
	kept := make([]*smt.Term, 0, len(c.Assertions))
	for _, a := range c.Assertions {
		if a.Op == smt.OpImplies {
			continue
		}
		kept = append(kept, a)
	}
	if len(kept) == len(c.Assertions) {
		return c
	}
	return &smt.Constraint{Logic: c.Logic, Builder: c.Builder, Vars: c.Vars, Assertions: kept}
}

// usesIntDivMod reports whether any assertion applies integer division or
// modulo — the operators whose bitvector counterparts (bvsdiv/bvsmod
// truncation) diverge from SMT-LIB's Euclidean semantics regardless of
// width, breaking exactness.
func usesIntDivMod(c *smt.Constraint) bool {
	found := false
	for _, a := range c.Assertions {
		a.Walk(func(t *smt.Term) bool {
			if t.Op == smt.OpIntDiv || t.Op == smt.OpMod {
				found = true
				return false
			}
			return true
		})
		if found {
			break
		}
	}
	return found
}

// certify attempts to derive a complete bitvector width for c. On
// success it returns the width to translate at, per-variable range hints
// (nil for the small-model path), and the raw sound root width.
func certify(c *smt.Constraint) (int, map[string]int, int, bool) {
	atoms, complete := collectAtoms(c.Assertions)
	iv := propagate(intVarNames(c.Vars), atoms)

	x := 1
	hints := map[string]int{}
	allBounded := true
	for _, v := range c.Vars {
		if v.Sort.Kind != smt.KindInt {
			continue
		}
		bounds := iv[v.Name]
		if _, finite := bounds.Width(); !finite {
			allBounded = false
			break
		}
		hw := boundWidth(bounds)
		hints[v.Name] = hw
		if hw > x {
			x = hw
		}
	}
	if !allBounded {
		if !complete {
			return 0, nil, 0, false
		}
		bits := smallModelBits(c, atoms)
		if bits <= 0 || bits > absint.MaxWidth {
			return 0, nil, 0, false
		}
		x = bits
		hints = nil
	}
	inf := absint.InferIntWith(c, x, absint.SemSound)
	if inf.Root > absint.MaxWidth {
		return 0, nil, 0, false
	}
	// Widening preserves completeness; narrowing never would.
	return max(inf.Root, absint.MinWidth), hints, inf.Root, true
}

// boundWidth is the signed bitvector width that holds every value of the
// finite integer interval: [-2^(w-1), 2^(w-1)-1] ⊇ [lo, hi].
func boundWidth(b interval.Interval) int {
	return max(b.Lo.V.Num().BitLen(), b.Hi.V.Num().BitLen(), 1) + 1
}

// smallModelBits is the Papadimitriou bound: an integer system of m
// linear atoms over n variables with coefficients/constants of magnitude
// at most a that is satisfiable has a solution with every component at
// most n·(m·a)^(2m+1) in magnitude. The returned width holds that bound
// as a signed value; systems of any realistic size exceed 64 bits and
// fail certification, which is expected — the bound exists for the tiny
// systems where it genuinely completes the solve.
func smallModelBits(c *smt.Constraint, atoms []poly.Atom) int {
	n := len(intVarNames(c.Vars))
	if n == 0 {
		return 1
	}
	m := len(atoms)
	if m == 0 {
		return 2
	}
	a := big.NewInt(1)
	for _, at := range atoms {
		// Every coefficient, the constant included, is an integer.
		for _, coef := range at.P {
			if mag := new(big.Int).Abs(coef.Num()); mag.Cmp(a) > 0 {
				a = mag
			}
		}
	}
	// Cheap overflow guard before computing the exact power: the width is
	// roughly (2m+1)·log2(m·a)+log2(n); far past any usable ceiling means
	// no certificate without the big exponentiation.
	ma := new(big.Int).Mul(big.NewInt(int64(m)), a)
	if approx := (2*m+1)*ma.BitLen() + 8; approx > 4096 {
		return approx
	}
	bound := new(big.Int).Exp(ma, big.NewInt(int64(2*m+1)), nil)
	bound.Mul(bound, big.NewInt(int64(n)))
	return bound.BitLen() + 1
}

// intVarNames lists the integer variables of a declaration list.
func intVarNames(vars []*smt.Term) []string {
	var names []string
	for _, v := range vars {
		if v.Sort.Kind == smt.KindInt {
			names = append(names, v.Name)
		}
	}
	return names
}

// deriveIntervals runs the full interval propagation over a term list —
// the hook linearize-nia uses to bound products from the constraint's own
// atoms.
func deriveIntervals(vars []*smt.Term, assertions []*smt.Term) map[string]interval.Interval {
	atoms, _ := collectAtoms(assertions)
	return propagate(intVarNames(vars), atoms)
}

// collectAtoms flattens every assertion's top-level conjunction and
// normalizes each conjunct into ≤-atoms. The second return reports
// whether EVERY conjunct normalized — required for the small-model bound,
// which speaks about pure linear systems; propagation is sound on any
// subset (a bound implied by some conjuncts is implied by all of them).
func collectAtoms(assertions []*smt.Term) ([]poly.Atom, bool) {
	var atoms []poly.Atom
	complete := true
	var conjunct func(t *smt.Term)
	conjunct = func(t *smt.Term) {
		if t.Op == smt.OpAnd {
			for _, a := range t.Args {
				conjunct(a)
			}
			return
		}
		if t.Op == smt.OpTrue {
			return
		}
		parsed, ok := leAtoms(t)
		if !ok {
			complete = false
			return
		}
		atoms = append(atoms, parsed...)
	}
	for _, a := range assertions {
		conjunct(a)
	}
	return atoms, complete
}

// leAtoms normalizes a (possibly negated) comparison of Int terms into
// linear atoms p ≤ 0: p < 0 tightens to p + 1 ≤ 0 over the integers, and
// p = 0 becomes p ≤ 0 then −p ≤ 0. Disequalities, nonlinear atoms and
// comparisons of non-Int terms are rejected, as is anything
// poly.AtomFromTerm rejects (negated chains, which are disjunctions).
func leAtoms(t *smt.Term) ([]poly.Atom, bool) {
	cmp := t
	for cmp.Op == smt.OpNot {
		cmp = cmp.Args[0]
	}
	if len(cmp.Args) == 0 || cmp.Args[0].Sort.Kind != smt.KindInt {
		return nil, false
	}
	atoms, err := poly.AtomFromTerm(t)
	if err != nil {
		return nil, false
	}
	out := make([]poly.Atom, 0, 2*len(atoms))
	for _, a := range atoms {
		if !a.P.IsLinear() {
			return nil, false
		}
		switch a.Rel {
		case poly.RelLe:
			out = append(out, a)
		case poly.RelLt:
			out = append(out, poly.Atom{P: a.P.Add(poly.Const(big.NewRat(1, 1))), Rel: poly.RelLe})
		case poly.RelEq:
			out = append(out, poly.Atom{P: a.P, Rel: poly.RelLe}, poly.Atom{P: a.P.Neg(), Rel: poly.RelLe})
		default:
			return nil, false
		}
	}
	return out, true
}

// propagate tightens per-variable intervals to a capped fixpoint: for
// each atom Σ c_i·x_i + k ≤ 0 and each variable x_j, the other terms'
// minimal contributions bound c_j·x_j from above. Every derived bound is
// implied by the atom given the bounds it was derived from, so the result
// is sound at any round count; the cap only bounds work on pathological
// chains that tighten forever. Coefficients and bounds are integers, so
// the sums run on their numerators.
func propagate(names []string, atoms []poly.Atom) map[string]interval.Interval {
	iv := make(map[string]interval.Interval, len(names))
	for _, name := range names {
		iv[name] = interval.Full()
	}
	// Atom i is Σ coefs[i][t]·vars[i][t] ≤ ks[i].
	vars := make([][]string, len(atoms))
	coefs := make([][]*big.Int, len(atoms))
	ks := make([]*big.Int, len(atoms))
	for i, at := range atoms {
		vars[i] = at.P.Vars()
		coefs[i] = make([]*big.Int, len(vars[i]))
		for t, x := range vars[i] {
			coefs[i][t] = at.P.Coeff(x).Num()
		}
		ks[i] = new(big.Int).Neg(at.P.ConstPart().Num())
	}
	rest, term, q := new(big.Int), new(big.Int), new(big.Int)
	for round := 0; round < 16; round++ {
		changed := false
		for i := range atoms {
			for j, xj := range vars[i] {
				bounds, known := iv[xj]
				if !known {
					continue
				}
				// rest = k − Σ_{i≠j} min(c_i·x_i), when every minimum is finite.
				rest.Set(ks[i])
				ok := true
				for t, xi := range vars[i] {
					if t == j {
						continue
					}
					b, known := iv[xi]
					side := b.Lo
					if coefs[i][t].Sign() < 0 {
						side = b.Hi
					}
					if !known || !side.IsFinite() {
						ok = false
						break
					}
					rest.Sub(rest, term.Mul(coefs[i][t], side.V.Num()))
				}
				if !ok {
					continue
				}
				// Euclidean division rounds rest/c_j down for c_j > 0, which
				// bounds x_j above, and up for c_j < 0, which bounds it below.
				cj := coefs[i][j]
				q.Div(rest, cj)
				if cj.Sign() > 0 {
					if !bounds.Hi.IsFinite() || q.Cmp(bounds.Hi.V.Num()) < 0 {
						bounds.Hi = interval.Finite(new(big.Rat).SetInt(q))
						iv[xj], changed = bounds, true
					}
				} else if !bounds.Lo.IsFinite() || q.Cmp(bounds.Lo.V.Num()) > 0 {
					bounds.Lo = interval.Finite(new(big.Rat).SetInt(q))
					iv[xj], changed = bounds, true
				}
			}
		}
		if !changed {
			break
		}
	}
	return iv
}
