// Package translate implements STAUB's constraint transformation
// (Sections 4.1 and 4.3 of the paper): converting a constraint over the
// unbounded theory of integers into the bounded theory of bitvectors, and
// a constraint over reals into floating-point arithmetic.
//
// The integer translation inserts overflow-guard assertions (negations of
// the SMT-LIB overflow predicates) after every arithmetic application, so
// the bounded constraint underapproximates the original exactly: any model
// of the bounded constraint maps back to a model of the original unless a
// semantic difference (documented per operation) intervenes. The real
// translation cannot forbid rounding, so models are only candidate models;
// package eval re-checks them against the original.
package translate

import (
	"fmt"
	"math/big"

	"staub/internal/absint"
	"staub/internal/bv"
	"staub/internal/eval"
	"staub/internal/fp"
	"staub/internal/smt"
)

// Kind identifies which sort correspondence a translation used.
type Kind int

// Translation kinds.
const (
	KindIntToBV Kind = iota
	KindRealToFP
)

func (k Kind) String() string {
	if k == KindIntToBV {
		return "Int→BitVec"
	}
	return "Real→FloatingPoint"
}

// Result is a completed translation.
type Result struct {
	Kind Kind
	// Bounded is the transformed constraint (including guard assertions).
	Bounded *smt.Constraint
	// Width is the bitvector width used (integer translations).
	Width int
	// FPSort is the floating-point sort used (real translations).
	FPSort smt.Sort
	// Guards counts the overflow-guard assertions inserted.
	Guards int
	// InexactConsts counts real constants whose FP rounding was inexact;
	// each is a semantic difference site.
	InexactConsts int
	// ConstOverflows counts integer constants that wrapped at the chosen
	// width (possible under fixed-width ablations); each is a semantic
	// difference site.
	ConstOverflows int

	origVars []*smt.Term
}

// Stats summarizes a translation for logging.
func (r *Result) Stats() string {
	switch r.Kind {
	case KindIntToBV:
		return fmt.Sprintf("Int→BV width=%d guards=%d wrapped-consts=%d",
			r.Width, r.Guards, r.ConstOverflows)
	default:
		return fmt.Sprintf("Real→FP sort=%v inexact-consts=%d", r.FPSort, r.InexactConsts)
	}
}

// IntToBV translates an integer constraint to bitvectors of the given
// width. Boolean variables are preserved. Constants that do not fit wrap
// (two's complement) and are counted in ConstOverflows.
func IntToBV(c *smt.Constraint, width int) (*Result, error) {
	return IntToBVWithHints(c, width, nil)
}

// IntToBVWithHints is IntToBV with optional per-variable width hints
// (the over chain's infer-apriori-bounds passes the widths its certified
// bounds need): each hinted variable narrower than the translation width
// gets a range assertion restricting it to the hinted signed range. A
// hint narrower than a variable's values deepens the underapproximation
// (verification still guards correctness); a certified one loses no
// solution. Either gives the bounded solver stronger unit-propagation
// targets on the high bits.
func IntToBVWithHints(c *smt.Constraint, width int, hints map[string]int) (*Result, error) {
	out := smt.NewConstraint("QF_BV")
	tr := &intTranslator{
		src:   c,
		dst:   out,
		width: width,
		memo:  map[*smt.Term]*smt.Term{},
	}
	b := out.Builder
	for _, v := range c.Vars {
		switch v.Sort.Kind {
		case smt.KindInt:
			nv, err := out.Declare(v.Name, smt.BitVecSort(width))
			if err != nil {
				return nil, err
			}
			if hw, ok := hints[v.Name]; ok && hw < width {
				lo := b.BV(bv.MinSigned(hw), width)
				hi := b.BV(bv.MaxSigned(hw), width)
				out.MustAssert(b.MustApply(smt.OpBVSGe, nv, lo))
				out.MustAssert(b.MustApply(smt.OpBVSLe, nv, hi))
			}
		case smt.KindBool:
			if _, err := out.Declare(v.Name, smt.BoolSort); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("translate: integer translation cannot handle %v variable %q", v.Sort, v.Name)
		}
	}
	for _, a := range c.Assertions {
		t, err := tr.term(a)
		if err != nil {
			return nil, err
		}
		// Guards for the operations in this assertion go first so a
		// solver prunes overflowing assignments early.
		for _, g := range tr.takeGuards() {
			out.MustAssert(g)
		}
		if err := out.Assert(t); err != nil {
			return nil, err
		}
	}
	return &Result{
		Kind:           KindIntToBV,
		Bounded:        out,
		Width:          width,
		Guards:         tr.guardCount,
		ConstOverflows: tr.constOverflows,
		origVars:       c.Vars,
	}, nil
}

type intTranslator struct {
	src            *smt.Constraint
	dst            *smt.Constraint
	width          int
	memo           map[*smt.Term]*smt.Term
	guards         []*smt.Term
	guardSeen      map[*smt.Term]bool
	guardCount     int
	constOverflows int
}

func (tr *intTranslator) addGuard(g *smt.Term) {
	if tr.guardSeen == nil {
		tr.guardSeen = map[*smt.Term]bool{}
	}
	if tr.guardSeen[g] {
		return
	}
	tr.guardSeen[g] = true
	tr.guards = append(tr.guards, g)
	tr.guardCount++
}

func (tr *intTranslator) takeGuards() []*smt.Term {
	gs := tr.guards
	tr.guards = nil
	return gs
}

// intOpMap is the function mapping M for the integer-bitvector sort
// correspondence (Section 4.3).
var intOpMap = map[smt.Op]smt.Op{
	smt.OpAdd:    smt.OpBVAdd,
	smt.OpSub:    smt.OpBVSub,
	smt.OpMul:    smt.OpBVMul,
	smt.OpNeg:    smt.OpBVNeg,
	smt.OpIntDiv: smt.OpBVSDiv,
	smt.OpMod:    smt.OpBVSMod,
	smt.OpLe:     smt.OpBVSLe,
	smt.OpLt:     smt.OpBVSLt,
	smt.OpGe:     smt.OpBVSGe,
	smt.OpGt:     smt.OpBVSGt,
}

// guardOps maps binary bitvector arithmetic to its overflow predicate.
var guardOps = map[smt.Op]smt.Op{
	smt.OpBVAdd:  smt.OpBVSAddO,
	smt.OpBVSub:  smt.OpBVSSubO,
	smt.OpBVMul:  smt.OpBVSMulO,
	smt.OpBVSDiv: smt.OpBVSDivO,
}

func (tr *intTranslator) term(t *smt.Term) (*smt.Term, error) {
	if out, ok := tr.memo[t]; ok {
		return out, nil
	}
	out, err := tr.termUncached(t)
	if err != nil {
		return nil, err
	}
	tr.memo[t] = out
	return out, nil
}

func (tr *intTranslator) termUncached(t *smt.Term) (*smt.Term, error) {
	b := tr.dst.Builder
	switch t.Op {
	case smt.OpVar:
		v, ok := b.LookupVar(t.Name)
		if !ok {
			return nil, fmt.Errorf("translate: undeclared variable %q", t.Name)
		}
		return v, nil
	case smt.OpTrue:
		return b.True(), nil
	case smt.OpFalse:
		return b.False(), nil
	case smt.OpIntConst:
		if !bv.FitsSigned(t.IntVal, tr.width) {
			tr.constOverflows++
		}
		return b.BV(t.IntVal, tr.width), nil
	case smt.OpRealConst:
		return nil, fmt.Errorf("translate: real constant in integer constraint")
	}

	args := make([]*smt.Term, len(t.Args))
	for i, a := range t.Args {
		ta, err := tr.term(a)
		if err != nil {
			return nil, err
		}
		args[i] = ta
	}

	switch t.Op {
	case smt.OpNot, smt.OpAnd, smt.OpOr, smt.OpXor, smt.OpImplies,
		smt.OpEq, smt.OpDistinct, smt.OpIte:
		return b.Apply(t.Op, args...)

	case smt.OpNeg:
		tr.addGuard(b.Not(b.MustApply(smt.OpBVNegO, args[0])))
		return b.Apply(smt.OpBVNeg, args[0])

	case smt.OpAbs:
		// abs x ≡ ite (bvslt x 0) (bvneg x) x, guarded against the
		// minimum-value overflow of bvneg.
		tr.addGuard(b.Not(b.MustApply(smt.OpBVNegO, args[0])))
		zero := b.BV(new(big.Int), tr.width)
		neg := b.MustApply(smt.OpBVNeg, args[0])
		isNeg := b.MustApply(smt.OpBVSLt, args[0], zero)
		return b.Apply(smt.OpIte, isNeg, neg, args[0])

	case smt.OpAdd, smt.OpSub, smt.OpMul, smt.OpIntDiv:
		op := intOpMap[t.Op]
		guard := guardOps[op]
		acc := args[0]
		for _, a := range args[1:] {
			tr.addGuard(b.Not(b.MustApply(guard, acc, a)))
			var err error
			acc, err = b.Apply(op, acc, a)
			if err != nil {
				return nil, err
			}
		}
		return acc, nil

	case smt.OpMod:
		// bvsmod matches SMT-LIB's Euclidean mod only for positive
		// divisors; a negative divisor is a semantic-difference site
		// resolved by verification.
		return b.Apply(smt.OpBVSMod, args...)

	case smt.OpLe, smt.OpLt, smt.OpGe, smt.OpGt:
		op := intOpMap[t.Op]
		// Chain n-ary comparisons pairwise.
		if len(args) == 2 {
			return b.Apply(op, args...)
		}
		parts := make([]*smt.Term, 0, len(args)-1)
		for i := 0; i+1 < len(args); i++ {
			parts = append(parts, b.MustApply(op, args[i], args[i+1]))
		}
		return b.And(parts...), nil
	}
	return nil, fmt.Errorf("translate: operator %v has no bitvector counterpart", t.Op)
}

// RealToFP translates a real constraint to the given floating-point sort.
// Each variable is additionally guarded against NaN and infinity so every
// model maps back into the reals (footnote 1 of the paper).
func RealToFP(c *smt.Constraint, sort smt.Sort) (*Result, error) {
	if sort.Kind != smt.KindFloat {
		return nil, fmt.Errorf("translate: RealToFP target sort %v", sort)
	}
	out := smt.NewConstraint("QF_FP")
	tr := &realTranslator{dst: out, sort: sort, memo: map[*smt.Term]*smt.Term{}}
	res := &Result{Kind: KindRealToFP, Bounded: out, FPSort: sort, origVars: c.Vars}
	b := out.Builder
	for _, v := range c.Vars {
		switch v.Sort.Kind {
		case smt.KindReal:
			nv, err := out.Declare(v.Name, sort)
			if err != nil {
				return nil, err
			}
			out.MustAssert(b.Not(b.MustApply(smt.OpFPIsNaN, nv)))
			out.MustAssert(b.Not(b.MustApply(smt.OpFPIsInf, nv)))
			res.Guards += 2
		case smt.KindBool:
			if _, err := out.Declare(v.Name, smt.BoolSort); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("translate: real translation cannot handle %v variable %q", v.Sort, v.Name)
		}
	}
	for _, a := range c.Assertions {
		t, err := tr.term(a)
		if err != nil {
			return nil, err
		}
		if err := out.Assert(t); err != nil {
			return nil, err
		}
	}
	res.InexactConsts = tr.inexact
	return res, nil
}

type realTranslator struct {
	dst     *smt.Constraint
	sort    smt.Sort
	memo    map[*smt.Term]*smt.Term
	inexact int
}

var realOpMap = map[smt.Op]smt.Op{
	smt.OpNeg: smt.OpFPNeg,
	smt.OpAdd: smt.OpFPAdd,
	smt.OpSub: smt.OpFPSub,
	smt.OpMul: smt.OpFPMul,
	smt.OpDiv: smt.OpFPDiv,
	smt.OpLe:  smt.OpFPLe,
	smt.OpLt:  smt.OpFPLt,
	smt.OpGe:  smt.OpFPGe,
	smt.OpGt:  smt.OpFPGt,
}

func (tr *realTranslator) term(t *smt.Term) (*smt.Term, error) {
	if out, ok := tr.memo[t]; ok {
		return out, nil
	}
	out, err := tr.termUncached(t)
	if err != nil {
		return nil, err
	}
	tr.memo[t] = out
	return out, nil
}

func (tr *realTranslator) termUncached(t *smt.Term) (*smt.Term, error) {
	b := tr.dst.Builder
	switch t.Op {
	case smt.OpVar:
		v, ok := b.LookupVar(t.Name)
		if !ok {
			return nil, fmt.Errorf("translate: undeclared variable %q", t.Name)
		}
		return v, nil
	case smt.OpTrue:
		return b.True(), nil
	case smt.OpFalse:
		return b.False(), nil
	case smt.OpRealConst, smt.OpIntConst:
		r := t.RatVal
		if t.Op == smt.OpIntConst {
			r = new(big.Rat).SetInt(t.IntVal)
		}
		v, exact := fp.FromRat(smt.FPFormat(tr.sort), r)
		if !exact {
			tr.inexact++
		}
		if !v.IsFinite() {
			// Overflowed to infinity; keep the max finite value so the
			// constraint stays meaningful (a semantic-difference site).
			maxV, _ := fp.FromRat(smt.FPFormat(tr.sort), smt.FPFormat(tr.sort).MaxFinite())
			v = maxV
			if r.Sign() < 0 {
				v = fp.Neg(v)
			}
		}
		rv, _ := v.Rat()
		return b.FP(tr.sort, v.Bits(), rv), nil
	}

	args := make([]*smt.Term, len(t.Args))
	for i, a := range t.Args {
		ta, err := tr.term(a)
		if err != nil {
			return nil, err
		}
		args[i] = ta
	}

	switch t.Op {
	case smt.OpNot, smt.OpAnd, smt.OpOr, smt.OpXor, smt.OpImplies, smt.OpIte:
		return b.Apply(t.Op, args...)

	case smt.OpEq:
		// Real equality maps to fp.eq (so -0 = +0 holds, matching the
		// φ-image of real equality).
		if allFloat(args) {
			return chainPairs(b, smt.OpFPEq, args)
		}
		return b.Apply(smt.OpEq, args...)

	case smt.OpDistinct:
		if allFloat(args) {
			var parts []*smt.Term
			for i := range args {
				for j := i + 1; j < len(args); j++ {
					parts = append(parts, b.Not(b.MustApply(smt.OpFPEq, args[i], args[j])))
				}
			}
			return b.And(parts...), nil
		}
		return b.Apply(smt.OpDistinct, args...)

	case smt.OpNeg:
		return b.Apply(smt.OpFPNeg, args[0])

	case smt.OpAdd, smt.OpSub, smt.OpMul, smt.OpDiv:
		op := realOpMap[t.Op]
		acc := args[0]
		var err error
		for _, a := range args[1:] {
			acc, err = b.Apply(op, acc, a)
			if err != nil {
				return nil, err
			}
		}
		return acc, nil

	case smt.OpLe, smt.OpLt, smt.OpGe, smt.OpGt:
		return chainPairs(b, realOpMap[t.Op], args)
	}
	return nil, fmt.Errorf("translate: operator %v has no floating-point counterpart", t.Op)
}

func allFloat(args []*smt.Term) bool {
	for _, a := range args {
		if a.Sort.Kind != smt.KindFloat {
			return false
		}
	}
	return true
}

func chainPairs(b *smt.Builder, op smt.Op, args []*smt.Term) (*smt.Term, error) {
	if len(args) == 2 {
		return b.Apply(op, args...)
	}
	parts := make([]*smt.Term, 0, len(args)-1)
	for i := 0; i+1 < len(args); i++ {
		p, err := b.Apply(op, args[i], args[i+1])
		if err != nil {
			return nil, err
		}
		parts = append(parts, p)
	}
	return b.And(parts...), nil
}

// ModelBack maps a model of the bounded constraint back through φ⁻¹ to an
// assignment for the original unbounded constraint: bitvectors are read as
// signed integers, floating-point values as exact rationals. NaN and
// infinities cannot be mapped and yield an error (a semantic difference).
func (r *Result) ModelBack(bounded eval.Assignment) (eval.Assignment, error) {
	out := make(eval.Assignment, len(bounded))
	for _, v := range r.origVars {
		bval, ok := bounded[v.Name]
		if !ok {
			return nil, fmt.Errorf("translate: bounded model missing variable %q", v.Name)
		}
		switch v.Sort.Kind {
		case smt.KindBool:
			out[v.Name] = bval
		case smt.KindInt:
			if bval.Sort.Kind != smt.KindBitVec {
				return nil, fmt.Errorf("translate: variable %q: want bitvector value, got %v", v.Name, bval.Sort)
			}
			out[v.Name] = eval.IntValue(bval.BV.Int())
		case smt.KindReal:
			if bval.Sort.Kind != smt.KindFloat {
				return nil, fmt.Errorf("translate: variable %q: want float value, got %v", v.Name, bval.Sort)
			}
			rat, ok := bval.FP.Rat()
			if !ok {
				return nil, fmt.Errorf("translate: variable %q assigned non-finite float", v.Name)
			}
			out[v.Name] = eval.RatValue(rat)
		default:
			return nil, fmt.Errorf("translate: variable %q has unexpected sort %v", v.Name, v.Sort)
		}
	}
	return out, nil
}

// Transform runs bound inference on c and translates it with the inferred
// bounds (the full Figure 3 pipeline minus solving). Integer constraints
// go to bitvectors, real constraints to floating point.
func Transform(c *smt.Constraint) (*Result, error) {
	kind, err := Classify(c)
	if err != nil {
		return nil, err
	}
	switch kind {
	case KindIntToBV:
		x := absint.DefaultIntX(c)
		inf := absint.InferIntWith(c, x, absint.SemPractical)
		return IntToBV(c, absint.SelectBVWidth(inf.Root))
	default:
		x := absint.DefaultRealX(c)
		inf := absint.InferReal(c, x)
		return RealToFP(c, absint.SelectFPSort(inf.Root))
	}
}

// Classify determines which correspondence applies to c: integer
// constraints (Int and Bool variables only) use Int→BV, real constraints
// (Real and Bool) use Real→FP. Mixed or already-bounded constraints are
// rejected.
func Classify(c *smt.Constraint) (Kind, error) {
	hasInt, hasReal := false, false
	for _, v := range c.Vars {
		switch v.Sort.Kind {
		case smt.KindInt:
			hasInt = true
		case smt.KindReal:
			hasReal = true
		case smt.KindBool:
		default:
			return 0, fmt.Errorf("translate: constraint already uses bounded sort %v", v.Sort)
		}
	}
	switch {
	case hasInt && hasReal:
		return 0, fmt.Errorf("translate: mixed integer/real constraints are not supported")
	case hasReal:
		return KindRealToFP, nil
	default:
		return KindIntToBV, nil
	}
}
