package smt

import (
	"fmt"
	"math/big"
	"strings"
)

// FPClass classifies a floating-point constant.
type FPClass byte

// Floating-point constant classes.
const (
	FPFinite FPClass = iota
	FPNaN
	FPPlusInf
	FPMinusInf
)

// Term is an immutable node in a constraint's syntax DAG. Terms are
// hash-consed by their Builder: two structurally identical terms built by
// the same builder are pointer-identical, so maps keyed by *Term implement
// per-node memoization in O(1).
//
// Payload fields are populated according to Op:
//
//	OpVar:       Name, Sort
//	OpIntConst:  IntVal (value)
//	OpRealConst: RatVal (value)
//	OpBVConst:   IntVal (two's-complement bits as an unsigned value), Sort
//	OpFPConst:   IntVal (raw bits), RatVal (exact value if finite), Class, Sort
type Term struct {
	Op   Op
	Sort Sort
	Args []*Term

	Name   string
	IntVal *big.Int
	RatVal *big.Rat
	Class  FPClass

	id   int32
	size int32 // number of DAG nodes reachable from this term
}

// ID returns a small integer unique to this term within its builder.
func (t *Term) ID() int { return int(t.id) }

// Size returns the number of distinct DAG nodes reachable from t,
// including t itself.
func (t *Term) Size() int { return int(t.size) }

// BVSigned interprets a bitvector constant as a signed (two's-complement)
// integer. It panics if the term is not a bitvector constant.
func (t *Term) BVSigned() *big.Int {
	if t.Op != OpBVConst {
		panic("smt: BVSigned on non-bitvector term")
	}
	w := uint(t.Sort.Width)
	v := new(big.Int).Set(t.IntVal)
	if v.Bit(int(w)-1) == 1 {
		v.Sub(v, new(big.Int).Lsh(big.NewInt(1), w))
	}
	return v
}

// String renders the term in SMT-LIB concrete syntax.
func (t *Term) String() string {
	var b strings.Builder
	writeTerm(&b, t)
	return b.String()
}

// writeTerm renders t with an explicit work stack rather than recursion,
// so printing depth is bounded by heap rather than goroutine stack — deep
// terms (up to the parser's nesting limit) print without risk of overflow.
func writeTerm(b *strings.Builder, t *Term) {
	type frame struct {
		t   *Term  // term to render, or
		lit string // literal text to emit
	}
	stack := []frame{{t: t}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.t == nil {
			b.WriteString(f.lit)
			continue
		}
		u := f.t
		switch u.Op {
		case OpVar:
			b.WriteString(u.Name)
		case OpTrue:
			b.WriteString("true")
		case OpFalse:
			b.WriteString("false")
		case OpIntConst:
			if u.IntVal.Sign() < 0 {
				fmt.Fprintf(b, "(- %s)", new(big.Int).Neg(u.IntVal).String())
			} else {
				b.WriteString(u.IntVal.String())
			}
		case OpRealConst:
			writeRat(b, u.RatVal)
		case OpBVConst:
			fmt.Fprintf(b, "(_ bv%s %d)", u.IntVal.String(), u.Sort.Width)
		case OpFPConst:
			writeFPConst(b, u)
		default:
			b.WriteByte('(')
			b.WriteString(opHead(u))
			stack = append(stack, frame{lit: ")"})
			for i := len(u.Args) - 1; i >= 0; i-- {
				stack = append(stack, frame{t: u.Args[i]}, frame{lit: " "})
			}
		}
	}
}

// opHead returns the operator spelling, including the implicit rounding
// mode for floating-point arithmetic operators.
func opHead(t *Term) string {
	switch t.Op {
	case OpFPAdd, OpFPSub, OpFPMul, OpFPDiv:
		return t.Op.String() + " RNE"
	default:
		return t.Op.String()
	}
}

func writeRat(b *strings.Builder, r *big.Rat) {
	if r.Sign() < 0 {
		b.WriteString("(- ")
		writeRat(b, new(big.Rat).Neg(r))
		b.WriteByte(')')
		return
	}
	if r.IsInt() {
		fmt.Fprintf(b, "%s.0", r.Num().String())
		return
	}
	// Express non-integers as a quotient, which is always exact.
	fmt.Fprintf(b, "(/ %s.0 %s.0)", r.Num().String(), r.Denom().String())
}

func writeFPConst(b *strings.Builder, t *Term) {
	eb, sb := t.Sort.EB, t.Sort.SB
	switch t.Class {
	case FPNaN:
		fmt.Fprintf(b, "(_ NaN %d %d)", eb, sb)
		return
	case FPPlusInf:
		fmt.Fprintf(b, "(_ +oo %d %d)", eb, sb)
		return
	case FPMinusInf:
		fmt.Fprintf(b, "(_ -oo %d %d)", eb, sb)
		return
	}
	total := eb + sb
	bits := make([]byte, total)
	for i := 0; i < total; i++ {
		if t.IntVal.Bit(i) == 1 {
			bits[total-1-i] = '1'
		} else {
			bits[total-1-i] = '0'
		}
	}
	sign := bits[0:1]
	exp := bits[1 : 1+eb]
	mant := bits[1+eb:]
	fmt.Fprintf(b, "(fp #b%s #b%s #b%s)", sign, exp, mant)
}

// Vars returns the set of distinct variables occurring in t, in first-visit
// order.
func (t *Term) Vars() []*Term {
	var out []*Term
	seen := map[*Term]bool{}
	var walk func(u *Term)
	walk = func(u *Term) {
		if seen[u] {
			return
		}
		seen[u] = true
		if u.Op == OpVar {
			out = append(out, u)
			return
		}
		for _, a := range u.Args {
			walk(a)
		}
	}
	walk(t)
	return out
}

// Walk calls f for every distinct node reachable from t in post-order
// (children before parents). It stops early if f returns false.
func (t *Term) Walk(f func(*Term) bool) {
	seen := map[*Term]bool{}
	var walk func(u *Term) bool
	walk = func(u *Term) bool {
		if seen[u] {
			return true
		}
		seen[u] = true
		for _, a := range u.Args {
			if !walk(a) {
				return false
			}
		}
		return f(u)
	}
	walk(t)
}
