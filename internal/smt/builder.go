package smt

import (
	"fmt"
	"math/big"
	"strings"
)

// Builder constructs hash-consed, type-checked terms. All terms combined in
// one expression must come from the same builder. The zero value is not
// ready to use; call NewBuilder.
type Builder struct {
	table  map[string]*Term
	nextID int32
	vars   map[string]*Term
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{
		table: make(map[string]*Term),
		vars:  make(map[string]*Term),
	}
}

func (b *Builder) intern(key string, mk func() *Term) *Term {
	if t, ok := b.table[key]; ok {
		return t
	}
	t := mk()
	t.id = b.nextID
	b.nextID++
	size := int32(1)
	seen := map[*Term]bool{}
	for _, a := range t.Args {
		if !seen[a] {
			seen[a] = true
			size += a.size
		}
	}
	t.size = size
	b.table[key] = t
	return t
}

// Var returns (creating if necessary) the variable with the given name and
// sort. Redeclaring a name with a different sort is an error.
func (b *Builder) Var(name string, sort Sort) (*Term, error) {
	if v, ok := b.vars[name]; ok {
		if v.Sort != sort {
			return nil, fmt.Errorf("smt: variable %q redeclared with sort %v (was %v)", name, sort, v.Sort)
		}
		return v, nil
	}
	v := b.intern("v:"+name, func() *Term {
		return &Term{Op: OpVar, Sort: sort, Name: name}
	})
	b.vars[name] = v
	return v, nil
}

// MustVar is Var, panicking on error.
func (b *Builder) MustVar(name string, sort Sort) *Term {
	v, err := b.Var(name, sort)
	if err != nil {
		panic(err)
	}
	return v
}

// LookupVar returns the previously declared variable with the given name.
func (b *Builder) LookupVar(name string) (*Term, bool) {
	v, ok := b.vars[name]
	return v, ok
}

// True and False return the boolean constants.
func (b *Builder) True() *Term {
	return b.intern("true", func() *Term { return &Term{Op: OpTrue, Sort: BoolSort} })
}

// False returns the boolean constant false.
func (b *Builder) False() *Term {
	return b.intern("false", func() *Term { return &Term{Op: OpFalse, Sort: BoolSort} })
}

// Bool returns the boolean constant for v.
func (b *Builder) Bool(v bool) *Term {
	if v {
		return b.True()
	}
	return b.False()
}

// Int returns the integer constant v.
func (b *Builder) Int(v int64) *Term { return b.IntBig(big.NewInt(v)) }

// IntBig returns the integer constant v.
func (b *Builder) IntBig(v *big.Int) *Term {
	key := "i:" + v.String()
	return b.intern(key, func() *Term {
		return &Term{Op: OpIntConst, Sort: IntSort, IntVal: new(big.Int).Set(v)}
	})
}

// Real returns the real constant num/den.
func (b *Builder) Real(num, den int64) *Term {
	return b.RealRat(big.NewRat(num, den))
}

// RealRat returns the real constant v.
func (b *Builder) RealRat(v *big.Rat) *Term {
	key := "r:" + v.RatString()
	return b.intern(key, func() *Term {
		return &Term{Op: OpRealConst, Sort: RealSort, RatVal: new(big.Rat).Set(v)}
	})
}

// BV returns the bitvector constant with the given two's-complement value
// and width. The value is reduced modulo 2^width.
func (b *Builder) BV(value *big.Int, width int) *Term {
	mod := new(big.Int).Lsh(big.NewInt(1), uint(width))
	bits := new(big.Int).Mod(value, mod)
	if bits.Sign() < 0 {
		bits.Add(bits, mod)
	}
	key := fmt.Sprintf("bv:%d:%s", width, bits.String())
	return b.intern(key, func() *Term {
		return &Term{Op: OpBVConst, Sort: BitVecSort(width), IntVal: bits}
	})
}

// FP returns a finite floating-point constant with the given raw bit
// pattern and exact rational value.
func (b *Builder) FP(sort Sort, bits *big.Int, exact *big.Rat) *Term {
	if sort.Kind != KindFloat {
		panic("smt: FP constant with non-float sort")
	}
	key := fmt.Sprintf("fp:%d:%d:%s", sort.EB, sort.SB, bits.String())
	return b.intern(key, func() *Term {
		return &Term{Op: OpFPConst, Sort: sort, IntVal: new(big.Int).Set(bits), RatVal: new(big.Rat).Set(exact)}
	})
}

// FPSpecial returns a NaN or infinity constant of the given sort.
func (b *Builder) FPSpecial(sort Sort, class FPClass) *Term {
	if sort.Kind != KindFloat || class == FPFinite {
		panic("smt: invalid FP special constant")
	}
	key := fmt.Sprintf("fps:%d:%d:%d", sort.EB, sort.SB, class)
	return b.intern(key, func() *Term {
		return &Term{Op: OpFPConst, Sort: sort, Class: class, IntVal: new(big.Int)}
	})
}

// Apply builds the application of op to args, type-checking the arguments
// and computing the result sort.
func (b *Builder) Apply(op Op, args ...*Term) (*Term, error) {
	sort, err := checkApply(op, args)
	if err != nil {
		return nil, err
	}
	var key strings.Builder
	fmt.Fprintf(&key, "a:%d", op)
	for _, a := range args {
		fmt.Fprintf(&key, ":%d", a.id)
	}
	cp := make([]*Term, len(args))
	copy(cp, args)
	return b.intern(key.String(), func() *Term {
		return &Term{Op: op, Sort: sort, Args: cp}
	}), nil
}

// MustApply is Apply, panicking on error. Intended for construction sites
// where the sorts are correct by construction (generators, translators).
func (b *Builder) MustApply(op Op, args ...*Term) *Term {
	t, err := b.Apply(op, args...)
	if err != nil {
		panic(err)
	}
	return t
}

// checkApply validates arities and argument sorts and returns the result
// sort of the application.
func checkApply(op Op, args []*Term) (Sort, error) {
	fail := func(format string, a ...any) (Sort, error) {
		return Sort{}, fmt.Errorf("smt: %s: %s", op, fmt.Sprintf(format, a...))
	}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("smt: %s: want %d arguments, got %d", op, n, len(args))
		}
		return nil
	}
	needAtLeast := func(n int) error {
		if len(args) < n {
			return fmt.Errorf("smt: %s: want at least %d arguments, got %d", op, n, len(args))
		}
		return nil
	}
	allSort := func(k SortKind) (Sort, error) {
		s := args[0].Sort
		if s.Kind != k {
			return Sort{}, fmt.Errorf("smt: %s: want %v argument, got %v", op, k, s)
		}
		for _, a := range args[1:] {
			if a.Sort != s {
				return Sort{}, fmt.Errorf("smt: %s: mixed argument sorts %v and %v", op, s, a.Sort)
			}
		}
		return s, nil
	}

	switch op {
	case OpNot:
		if err := need(1); err != nil {
			return Sort{}, err
		}
		if _, err := allSort(KindBool); err != nil {
			return Sort{}, err
		}
		return BoolSort, nil

	case OpAnd, OpOr:
		if err := needAtLeast(1); err != nil {
			return Sort{}, err
		}
		if _, err := allSort(KindBool); err != nil {
			return Sort{}, err
		}
		return BoolSort, nil

	case OpXor, OpImplies:
		if err := needAtLeast(2); err != nil {
			return Sort{}, err
		}
		if _, err := allSort(KindBool); err != nil {
			return Sort{}, err
		}
		return BoolSort, nil

	case OpEq, OpDistinct:
		if err := needAtLeast(2); err != nil {
			return Sort{}, err
		}
		s := args[0].Sort
		for _, a := range args[1:] {
			if a.Sort != s {
				return fail("mixed argument sorts %v and %v", s, a.Sort)
			}
		}
		return BoolSort, nil

	case OpIte:
		if err := need(3); err != nil {
			return Sort{}, err
		}
		if args[0].Sort.Kind != KindBool {
			return fail("condition must be Bool, got %v", args[0].Sort)
		}
		if args[1].Sort != args[2].Sort {
			return fail("branch sorts differ: %v vs %v", args[1].Sort, args[2].Sort)
		}
		return args[1].Sort, nil

	case OpNeg, OpAbs:
		if err := need(1); err != nil {
			return Sort{}, err
		}
		k := args[0].Sort.Kind
		if k != KindInt && k != KindReal {
			return fail("want Int or Real, got %v", args[0].Sort)
		}
		if op == OpAbs && k != KindInt {
			return fail("abs is only defined on Int")
		}
		return args[0].Sort, nil

	case OpAdd, OpSub, OpMul:
		if err := needAtLeast(2); err != nil {
			return Sort{}, err
		}
		s := args[0].Sort
		if s.Kind != KindInt && s.Kind != KindReal {
			return fail("want Int or Real, got %v", s)
		}
		for _, a := range args[1:] {
			if a.Sort != s {
				return fail("mixed argument sorts %v and %v", s, a.Sort)
			}
		}
		return s, nil

	case OpDiv:
		if err := needAtLeast(2); err != nil {
			return Sort{}, err
		}
		if _, err := allSort(KindReal); err != nil {
			return Sort{}, err
		}
		return RealSort, nil

	case OpIntDiv, OpMod:
		if err := need(2); err != nil {
			return Sort{}, err
		}
		if _, err := allSort(KindInt); err != nil {
			return Sort{}, err
		}
		return IntSort, nil

	case OpLe, OpLt, OpGe, OpGt:
		if err := needAtLeast(2); err != nil {
			return Sort{}, err
		}
		s := args[0].Sort
		if s.Kind != KindInt && s.Kind != KindReal {
			return fail("want Int or Real, got %v", s)
		}
		for _, a := range args[1:] {
			if a.Sort != s {
				return fail("mixed argument sorts %v and %v", s, a.Sort)
			}
		}
		return BoolSort, nil

	case OpToReal:
		if err := need(1); err != nil {
			return Sort{}, err
		}
		if args[0].Sort.Kind != KindInt {
			return fail("want Int, got %v", args[0].Sort)
		}
		return RealSort, nil

	case OpToInt:
		if err := need(1); err != nil {
			return Sort{}, err
		}
		if args[0].Sort.Kind != KindReal {
			return fail("want Real, got %v", args[0].Sort)
		}
		return IntSort, nil

	case OpBVNeg, OpBVNot, OpBVNegO:
		if err := need(1); err != nil {
			return Sort{}, err
		}
		s, err := allSort(KindBitVec)
		if err != nil {
			return Sort{}, err
		}
		if op == OpBVNegO {
			return BoolSort, nil
		}
		return s, nil

	case OpBVAdd, OpBVSub, OpBVMul, OpBVSDiv, OpBVSRem, OpBVSMod,
		OpBVAnd, OpBVOr, OpBVXor, OpBVShl, OpBVLshr, OpBVAshr,
		OpBVUDiv, OpBVURem:
		if err := needAtLeast(2); err != nil {
			return Sort{}, err
		}
		return allSort(KindBitVec)

	case OpBVSLe, OpBVSLt, OpBVSGe, OpBVSGt, OpBVULe, OpBVULt, OpBVUGe, OpBVUGt,
		OpBVSAddO, OpBVSSubO, OpBVSMulO, OpBVSDivO:
		if err := need(2); err != nil {
			return Sort{}, err
		}
		if _, err := allSort(KindBitVec); err != nil {
			return Sort{}, err
		}
		return BoolSort, nil

	case OpFPNeg, OpFPAbs:
		if err := need(1); err != nil {
			return Sort{}, err
		}
		return allSort(KindFloat)

	case OpFPAdd, OpFPSub, OpFPMul, OpFPDiv:
		if err := need(2); err != nil {
			return Sort{}, err
		}
		return allSort(KindFloat)

	case OpFPLe, OpFPLt, OpFPGe, OpFPGt, OpFPEq:
		if err := need(2); err != nil {
			return Sort{}, err
		}
		if _, err := allSort(KindFloat); err != nil {
			return Sort{}, err
		}
		return BoolSort, nil

	case OpFPIsNaN, OpFPIsInf:
		if err := need(1); err != nil {
			return Sort{}, err
		}
		if _, err := allSort(KindFloat); err != nil {
			return Sort{}, err
		}
		return BoolSort, nil
	}
	return fail("operator cannot be applied")
}

// Convenience constructors. Each panics on a sort error, which indicates a
// programming bug at the construction site.

// Not returns (not a).
func (b *Builder) Not(a *Term) *Term { return b.MustApply(OpNot, a) }

// And returns (and args...). With a single argument it returns the argument.
func (b *Builder) And(args ...*Term) *Term {
	if len(args) == 1 {
		return args[0]
	}
	if len(args) == 0 {
		return b.True()
	}
	return b.MustApply(OpAnd, args...)
}

// Or returns (or args...). With a single argument it returns the argument.
func (b *Builder) Or(args ...*Term) *Term {
	if len(args) == 1 {
		return args[0]
	}
	if len(args) == 0 {
		return b.False()
	}
	return b.MustApply(OpOr, args...)
}

// Implies returns (=> a c).
func (b *Builder) Implies(a, c *Term) *Term { return b.MustApply(OpImplies, a, c) }

// Eq returns (= x y).
func (b *Builder) Eq(x, y *Term) *Term { return b.MustApply(OpEq, x, y) }

// Add returns (+ args...).
func (b *Builder) Add(args ...*Term) *Term {
	if len(args) == 1 {
		return args[0]
	}
	return b.MustApply(OpAdd, args...)
}

// Sub returns (- x y).
func (b *Builder) Sub(x, y *Term) *Term { return b.MustApply(OpSub, x, y) }

// Mul returns (* args...).
func (b *Builder) Mul(args ...*Term) *Term {
	if len(args) == 1 {
		return args[0]
	}
	return b.MustApply(OpMul, args...)
}

// Neg returns (- x).
func (b *Builder) Neg(x *Term) *Term { return b.MustApply(OpNeg, x) }

// Le returns (<= x y).
func (b *Builder) Le(x, y *Term) *Term { return b.MustApply(OpLe, x, y) }

// Lt returns (< x y).
func (b *Builder) Lt(x, y *Term) *Term { return b.MustApply(OpLt, x, y) }

// Ge returns (>= x y).
func (b *Builder) Ge(x, y *Term) *Term { return b.MustApply(OpGe, x, y) }

// Gt returns (> x y).
func (b *Builder) Gt(x, y *Term) *Term { return b.MustApply(OpGt, x, y) }
