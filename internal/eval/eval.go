// Package eval evaluates SMT terms under concrete variable assignments
// using exact arithmetic (math/big for the unbounded theories, packages bv
// and fp for the bounded ones). It is STAUB's verification oracle: after
// the bounded transformed constraint is solved, the candidate model is
// mapped back and the original unbounded constraint is evaluated here to
// confirm the assignment (Section 4.4 of the paper).
package eval

import (
	"fmt"
	"math/big"

	"staub/internal/bv"
	"staub/internal/fp"
	"staub/internal/smt"
)

// Value is a concrete SMT value tagged by sort kind.
type Value struct {
	Sort smt.Sort
	Bool bool     // KindBool
	Int  *big.Int // KindInt
	Rat  *big.Rat // KindReal
	BV   bv.Value // KindBitVec
	FP   fp.Value // KindFloat
}

// BoolValue returns a boolean value.
func BoolValue(b bool) Value { return Value{Sort: smt.BoolSort, Bool: b} }

// IntValue returns an integer value.
func IntValue(v *big.Int) Value { return Value{Sort: smt.IntSort, Int: v} }

// IntValue64 returns an integer value from an int64.
func IntValue64(v int64) Value { return IntValue(big.NewInt(v)) }

// RatValue returns a real value.
func RatValue(v *big.Rat) Value { return Value{Sort: smt.RealSort, Rat: v} }

// BVValue returns a bitvector value.
func BVValue(v bv.Value) Value {
	return Value{Sort: smt.BitVecSort(v.Width()), BV: v}
}

// FPValue returns a floating-point value.
func FPValue(v fp.Value) Value {
	return Value{Sort: smt.FloatSort(v.Format().EB, v.Format().SB), FP: v}
}

func (v Value) String() string {
	switch v.Sort.Kind {
	case smt.KindBool:
		return fmt.Sprintf("%t", v.Bool)
	case smt.KindInt:
		return v.Int.String()
	case smt.KindReal:
		return v.Rat.RatString()
	case smt.KindBitVec:
		return v.BV.String()
	case smt.KindFloat:
		return v.FP.String()
	default:
		return "<invalid>"
	}
}

// Assignment maps variable names to values.
type Assignment map[string]Value

// Term evaluates t under asg. Every variable occurring in t must be
// assigned a value of the variable's sort. Division by zero in the
// unbounded theories is reported as an error (SMT-LIB leaves it
// uninterpreted; for verification purposes an unverifiable model is the
// safe answer).
func Term(t *smt.Term, asg Assignment) (Value, error) {
	e := &evaluator{asg: asg, memo: make(map[*smt.Term]Value, t.Size())}
	return e.eval(t)
}

// Bool evaluates a boolean term and returns its truth value.
func Bool(t *smt.Term, asg Assignment) (bool, error) {
	v, err := Term(t, asg)
	if err != nil {
		return false, err
	}
	if v.Sort.Kind != smt.KindBool {
		return false, fmt.Errorf("eval: term has sort %v, want Bool", v.Sort)
	}
	return v.Bool, nil
}

// Constraint reports whether asg satisfies every assertion of c.
func Constraint(c *smt.Constraint, asg Assignment) (bool, error) {
	for _, a := range c.Assertions {
		ok, err := Bool(a, asg)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

type evaluator struct {
	asg  Assignment
	memo map[*smt.Term]Value
}

func (e *evaluator) eval(t *smt.Term) (Value, error) {
	if v, ok := e.memo[t]; ok {
		return v, nil
	}
	v, err := e.evalUncached(t)
	if err != nil {
		return Value{}, err
	}
	e.memo[t] = v
	return v, nil
}

func (e *evaluator) evalUncached(t *smt.Term) (Value, error) {
	switch t.Op {
	case smt.OpVar:
		v, ok := e.asg[t.Name]
		if !ok {
			return Value{}, fmt.Errorf("eval: unassigned variable %q", t.Name)
		}
		if v.Sort != t.Sort {
			return Value{}, fmt.Errorf("eval: variable %q assigned sort %v, want %v", t.Name, v.Sort, t.Sort)
		}
		return v, nil
	case smt.OpTrue:
		return BoolValue(true), nil
	case smt.OpFalse:
		return BoolValue(false), nil
	case smt.OpIntConst:
		return IntValue(t.IntVal), nil
	case smt.OpRealConst:
		return RatValue(t.RatVal), nil
	case smt.OpBVConst:
		return BVValue(bv.New(t.Sort.Width, t.IntVal)), nil
	case smt.OpFPConst:
		return FPValue(smt.FPValueOf(t)), nil
	}

	// Short-circuit boolean connectives to avoid spurious errors (for
	// example a guarded division) and wasted work.
	switch t.Op {
	case smt.OpAnd:
		for _, a := range t.Args {
			v, err := e.eval(a)
			if err != nil {
				return Value{}, err
			}
			if !v.Bool {
				return BoolValue(false), nil
			}
		}
		return BoolValue(true), nil
	case smt.OpOr:
		for _, a := range t.Args {
			v, err := e.eval(a)
			if err != nil {
				return Value{}, err
			}
			if v.Bool {
				return BoolValue(true), nil
			}
		}
		return BoolValue(false), nil
	case smt.OpImplies:
		// Right-associative chain: a => b => c is a => (b => c).
		// Evaluate all; implication chain value.
		vals := make([]bool, len(t.Args))
		for i, a := range t.Args {
			v, err := e.eval(a)
			if err != nil {
				return Value{}, err
			}
			vals[i] = v.Bool
		}
		res := vals[len(vals)-1]
		for i := len(vals) - 2; i >= 0; i-- {
			res = !vals[i] || res
		}
		return BoolValue(res), nil
	case smt.OpIte:
		c, err := e.eval(t.Args[0])
		if err != nil {
			return Value{}, err
		}
		if c.Bool {
			return e.eval(t.Args[1])
		}
		return e.eval(t.Args[2])
	}

	args := make([]Value, len(t.Args))
	for i, a := range t.Args {
		v, err := e.eval(a)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	return apply(t, args)
}

func apply(t *smt.Term, args []Value) (Value, error) {
	switch t.Op {
	case smt.OpNot:
		return BoolValue(!args[0].Bool), nil
	case smt.OpXor:
		r := false
		for _, a := range args {
			r = r != a.Bool
		}
		return BoolValue(r), nil
	case smt.OpEq:
		for i := 1; i < len(args); i++ {
			eq, err := valuesEqual(args[0], args[i])
			if err != nil {
				return Value{}, err
			}
			if !eq {
				return BoolValue(false), nil
			}
		}
		return BoolValue(true), nil
	case smt.OpDistinct:
		for i := range args {
			for j := i + 1; j < len(args); j++ {
				eq, err := valuesEqual(args[i], args[j])
				if err != nil {
					return Value{}, err
				}
				if eq {
					return BoolValue(false), nil
				}
			}
		}
		return BoolValue(true), nil
	}

	switch args[0].Sort.Kind {
	case smt.KindInt:
		return applyInt(t, args)
	case smt.KindReal:
		return applyReal(t, args)
	case smt.KindBitVec:
		return applyBV(t, args)
	case smt.KindFloat:
		return applyFP(t, args)
	}
	return Value{}, fmt.Errorf("eval: cannot apply %v", t.Op)
}

func valuesEqual(a, b Value) (bool, error) {
	if a.Sort != b.Sort {
		return false, fmt.Errorf("eval: comparing values of sorts %v and %v", a.Sort, b.Sort)
	}
	switch a.Sort.Kind {
	case smt.KindBool:
		return a.Bool == b.Bool, nil
	case smt.KindInt:
		return a.Int.Cmp(b.Int) == 0, nil
	case smt.KindReal:
		return a.Rat.Cmp(b.Rat) == 0, nil
	case smt.KindBitVec:
		return bv.Eq(a.BV, b.BV), nil
	case smt.KindFloat:
		// SMT-LIB (= x y) on FloatingPoint is identity of values, and
		// the theory has a single NaN: every NaN pattern, whatever its
		// sign bit or payload, is that value. Other values are equal
		// when their bit patterns are, so -0 != +0.
		if a.FP.IsNaN() || b.FP.IsNaN() {
			return a.FP.IsNaN() && b.FP.IsNaN(), nil
		}
		return a.FP.Bits().Cmp(b.FP.Bits()) == 0, nil
	}
	return false, fmt.Errorf("eval: equality on sort %v", a.Sort)
}

func applyInt(t *smt.Term, args []Value) (Value, error) {
	switch t.Op {
	case smt.OpNeg:
		return IntValue(new(big.Int).Neg(args[0].Int)), nil
	case smt.OpAbs:
		return IntValue(new(big.Int).Abs(args[0].Int)), nil
	case smt.OpAdd:
		acc := new(big.Int).Set(args[0].Int)
		for _, a := range args[1:] {
			acc.Add(acc, a.Int)
		}
		return IntValue(acc), nil
	case smt.OpSub:
		acc := new(big.Int).Set(args[0].Int)
		for _, a := range args[1:] {
			acc.Sub(acc, a.Int)
		}
		return IntValue(acc), nil
	case smt.OpMul:
		acc := new(big.Int).Set(args[0].Int)
		for _, a := range args[1:] {
			acc.Mul(acc, a.Int)
		}
		return IntValue(acc), nil
	case smt.OpIntDiv, smt.OpMod:
		if args[1].Int.Sign() == 0 {
			return Value{}, fmt.Errorf("eval: integer division by zero")
		}
		// SMT-LIB uses Euclidean division: 0 <= mod < |divisor|.
		q, m := new(big.Int).QuoRem(args[0].Int, args[1].Int, new(big.Int))
		if m.Sign() < 0 {
			if args[1].Int.Sign() > 0 {
				q.Sub(q, big.NewInt(1))
				m.Add(m, args[1].Int)
			} else {
				q.Add(q, big.NewInt(1))
				m.Sub(m, args[1].Int)
			}
		}
		if t.Op == smt.OpIntDiv {
			return IntValue(q), nil
		}
		return IntValue(m), nil
	case smt.OpLe:
		return chainCmpInt(args, func(c int) bool { return c <= 0 }), nil
	case smt.OpLt:
		return chainCmpInt(args, func(c int) bool { return c < 0 }), nil
	case smt.OpGe:
		return chainCmpInt(args, func(c int) bool { return c >= 0 }), nil
	case smt.OpGt:
		return chainCmpInt(args, func(c int) bool { return c > 0 }), nil
	case smt.OpToReal:
		return RatValue(new(big.Rat).SetInt(args[0].Int)), nil
	}
	return Value{}, fmt.Errorf("eval: cannot apply %v to Int", t.Op)
}

func chainCmpInt(args []Value, ok func(int) bool) Value {
	for i := 0; i+1 < len(args); i++ {
		if !ok(args[i].Int.Cmp(args[i+1].Int)) {
			return BoolValue(false)
		}
	}
	return BoolValue(true)
}

func applyReal(t *smt.Term, args []Value) (Value, error) {
	switch t.Op {
	case smt.OpNeg:
		return RatValue(new(big.Rat).Neg(args[0].Rat)), nil
	case smt.OpAdd:
		acc := new(big.Rat).Set(args[0].Rat)
		for _, a := range args[1:] {
			acc.Add(acc, a.Rat)
		}
		return RatValue(acc), nil
	case smt.OpSub:
		acc := new(big.Rat).Set(args[0].Rat)
		for _, a := range args[1:] {
			acc.Sub(acc, a.Rat)
		}
		return RatValue(acc), nil
	case smt.OpMul:
		acc := new(big.Rat).Set(args[0].Rat)
		for _, a := range args[1:] {
			acc.Mul(acc, a.Rat)
		}
		return RatValue(acc), nil
	case smt.OpDiv:
		acc := new(big.Rat).Set(args[0].Rat)
		for _, a := range args[1:] {
			if a.Rat.Sign() == 0 {
				return Value{}, fmt.Errorf("eval: real division by zero")
			}
			acc.Quo(acc, a.Rat)
		}
		return RatValue(acc), nil
	case smt.OpLe:
		return chainCmpRat(args, func(c int) bool { return c <= 0 }), nil
	case smt.OpLt:
		return chainCmpRat(args, func(c int) bool { return c < 0 }), nil
	case smt.OpGe:
		return chainCmpRat(args, func(c int) bool { return c >= 0 }), nil
	case smt.OpGt:
		return chainCmpRat(args, func(c int) bool { return c > 0 }), nil
	case smt.OpToInt:
		// to_int is the floor function.
		num, den := args[0].Rat.Num(), args[0].Rat.Denom()
		q, m := new(big.Int).QuoRem(num, den, new(big.Int))
		if m.Sign() < 0 {
			q.Sub(q, big.NewInt(1))
		}
		return IntValue(q), nil
	}
	return Value{}, fmt.Errorf("eval: cannot apply %v to Real", t.Op)
}

func chainCmpRat(args []Value, ok func(int) bool) Value {
	for i := 0; i+1 < len(args); i++ {
		if !ok(args[i].Rat.Cmp(args[i+1].Rat)) {
			return BoolValue(false)
		}
	}
	return BoolValue(true)
}

func applyBV(t *smt.Term, args []Value) (Value, error) {
	a := args[0].BV
	bin := func(f func(x, y bv.Value) bv.Value) Value {
		acc := a
		for _, v := range args[1:] {
			acc = f(acc, v.BV)
		}
		return BVValue(acc)
	}
	switch t.Op {
	case smt.OpBVNeg:
		return BVValue(bv.Neg(a)), nil
	case smt.OpBVNot:
		return BVValue(bv.Not(a)), nil
	case smt.OpBVAdd:
		return bin(bv.Add), nil
	case smt.OpBVSub:
		return bin(bv.Sub), nil
	case smt.OpBVMul:
		return bin(bv.Mul), nil
	case smt.OpBVSDiv:
		return bin(bv.SDiv), nil
	case smt.OpBVSRem:
		return bin(bv.SRem), nil
	case smt.OpBVSMod:
		return bin(bv.SMod), nil
	case smt.OpBVUDiv:
		return bin(bv.UDiv), nil
	case smt.OpBVURem:
		return bin(bv.URem), nil
	case smt.OpBVAnd:
		return bin(bv.And), nil
	case smt.OpBVOr:
		return bin(bv.Or), nil
	case smt.OpBVXor:
		return bin(bv.Xor), nil
	case smt.OpBVShl:
		return bin(bv.Shl), nil
	case smt.OpBVLshr:
		return bin(bv.Lshr), nil
	case smt.OpBVAshr:
		return bin(bv.Ashr), nil
	case smt.OpBVSLe:
		return BoolValue(bv.SLe(a, args[1].BV)), nil
	case smt.OpBVSLt:
		return BoolValue(bv.SLt(a, args[1].BV)), nil
	case smt.OpBVSGe:
		return BoolValue(bv.SGe(a, args[1].BV)), nil
	case smt.OpBVSGt:
		return BoolValue(bv.SGt(a, args[1].BV)), nil
	case smt.OpBVULe:
		return BoolValue(bv.ULe(a, args[1].BV)), nil
	case smt.OpBVULt:
		return BoolValue(bv.ULt(a, args[1].BV)), nil
	case smt.OpBVUGe:
		return BoolValue(bv.UGe(a, args[1].BV)), nil
	case smt.OpBVUGt:
		return BoolValue(bv.UGt(a, args[1].BV)), nil
	case smt.OpBVNegO:
		return BoolValue(bv.NegOverflow(a)), nil
	case smt.OpBVSAddO:
		return BoolValue(bv.SAddOverflow(a, args[1].BV)), nil
	case smt.OpBVSSubO:
		return BoolValue(bv.SSubOverflow(a, args[1].BV)), nil
	case smt.OpBVSMulO:
		return BoolValue(bv.SMulOverflow(a, args[1].BV)), nil
	case smt.OpBVSDivO:
		return BoolValue(bv.SDivOverflow(a, args[1].BV)), nil
	}
	return Value{}, fmt.Errorf("eval: cannot apply %v to BitVec", t.Op)
}

func applyFP(t *smt.Term, args []Value) (Value, error) {
	a := args[0].FP
	switch t.Op {
	case smt.OpFPNeg:
		return FPValue(fp.Neg(a)), nil
	case smt.OpFPAbs:
		return FPValue(fp.Abs(a)), nil
	case smt.OpFPAdd:
		return FPValue(fp.Add(a, args[1].FP)), nil
	case smt.OpFPSub:
		return FPValue(fp.Sub(a, args[1].FP)), nil
	case smt.OpFPMul:
		return FPValue(fp.Mul(a, args[1].FP)), nil
	case smt.OpFPDiv:
		return FPValue(fp.Div(a, args[1].FP)), nil
	case smt.OpFPEq:
		return BoolValue(fp.Eq(a, args[1].FP)), nil
	case smt.OpFPLt:
		return BoolValue(fp.Lt(a, args[1].FP)), nil
	case smt.OpFPLe:
		return BoolValue(fp.Le(a, args[1].FP)), nil
	case smt.OpFPGt:
		return BoolValue(fp.Gt(a, args[1].FP)), nil
	case smt.OpFPGe:
		return BoolValue(fp.Ge(a, args[1].FP)), nil
	case smt.OpFPIsNaN:
		return BoolValue(a.IsNaN()), nil
	case smt.OpFPIsInf:
		return BoolValue(a.IsInf(0)), nil
	}
	return Value{}, fmt.Errorf("eval: cannot apply %v to FloatingPoint", t.Op)
}
