// Package smt defines the core representation for SMT-LIB constraints:
// sorts, operators, immutable hash-consed terms, and whole constraints,
// together with a parser and printer for the SMT-LIB v2 concrete syntax.
//
// The package covers the fragment STAUB operates on: the core theory
// (booleans, equality, ite), integer and real arithmetic, fixed-width
// bitvectors including the overflow predicates, and parameterized
// IEEE-754 floating-point arithmetic.
package smt

import "fmt"

// SortKind classifies sorts. In the paper's terminology (after Z3), BitVec
// and Float are "kinds" grouping one sort per width; Bool, Int and Real are
// singleton kinds.
type SortKind int

// Sort kinds.
const (
	KindInvalid SortKind = iota
	KindBool
	KindInt
	KindReal
	KindBitVec
	KindFloat
)

func (k SortKind) String() string {
	switch k {
	case KindBool:
		return "Bool"
	case KindInt:
		return "Int"
	case KindReal:
		return "Real"
	case KindBitVec:
		return "BitVec"
	case KindFloat:
		return "FloatingPoint"
	default:
		return "Invalid"
	}
}

// Sort is a value type identifying an SMT sort. Width is the bit width for
// BitVec sorts; EB and SB are the exponent and significand widths (the
// significand width includes the hidden bit, as in SMT-LIB) for Float sorts.
type Sort struct {
	Kind SortKind
	// Width is the total bit width of a BitVec sort.
	Width int
	// EB and SB parameterize a Float sort.
	EB, SB int
}

// Predefined singleton sorts.
var (
	BoolSort = Sort{Kind: KindBool}
	IntSort  = Sort{Kind: KindInt}
	RealSort = Sort{Kind: KindReal}
)

// BitVecSort returns the bitvector sort of the given width.
func BitVecSort(width int) Sort {
	if width <= 0 {
		panic(fmt.Sprintf("smt: invalid bitvector width %d", width))
	}
	return Sort{Kind: KindBitVec, Width: width}
}

// FloatSort returns the floating-point sort with eb exponent bits and sb
// significand bits (including the hidden bit).
func FloatSort(eb, sb int) Sort {
	if eb < 2 || sb < 2 {
		panic(fmt.Sprintf("smt: invalid float sort (%d, %d)", eb, sb))
	}
	return Sort{Kind: KindFloat, EB: eb, SB: sb}
}

// Float16Sort, Float32Sort and Float64Sort are the standard IEEE widths.
var (
	Float16Sort = FloatSort(5, 11)
	Float32Sort = FloatSort(8, 24)
	Float64Sort = FloatSort(11, 53)
)

// TotalBits returns the number of bits of a value of this sort: 1 for Bool,
// the width for BitVec, eb+sb for Float. It panics for unbounded sorts.
func (s Sort) TotalBits() int {
	switch s.Kind {
	case KindBool:
		return 1
	case KindBitVec:
		return s.Width
	case KindFloat:
		return s.EB + s.SB
	default:
		panic(fmt.Sprintf("smt: sort %v has no fixed bit width", s))
	}
}

// Bounded reports whether the sort has finitely many values
// (Definition 3.3 of the paper).
func (s Sort) Bounded() bool {
	switch s.Kind {
	case KindBool, KindBitVec, KindFloat:
		return true
	default:
		return false
	}
}

func (s Sort) String() string {
	switch s.Kind {
	case KindBool:
		return "Bool"
	case KindInt:
		return "Int"
	case KindReal:
		return "Real"
	case KindBitVec:
		return fmt.Sprintf("(_ BitVec %d)", s.Width)
	case KindFloat:
		return fmt.Sprintf("(_ FloatingPoint %d %d)", s.EB, s.SB)
	default:
		return "<invalid>"
	}
}
