package smt

// Op enumerates every operator the term language supports. Leaf operators
// (OpVar and the constant operators) carry payload fields on the Term.
type Op int

// Operators. The comment after each gives the SMT-LIB name.
const (
	OpInvalid Op = iota

	// Leaves.
	OpVar       // declared constant (variable)
	OpIntConst  // integer numeral
	OpRealConst // decimal / rational
	OpBVConst   // #b / #x literal
	OpFPConst   // (fp ...) literal
	OpTrue      // true
	OpFalse     // false

	// Core boolean connectives.
	OpNot      // not
	OpAnd      // and
	OpOr       // or
	OpXor      // xor
	OpImplies  // =>
	OpEq       // =
	OpDistinct // distinct
	OpIte      // ite

	// Integer / real arithmetic (unbounded theories).
	OpNeg    // - (unary)
	OpAdd    // +
	OpSub    // - (binary)
	OpMul    // *
	OpDiv    // / (reals)
	OpIntDiv // div (integers, Euclidean)
	OpMod    // mod
	OpAbs    // abs
	OpLe     // <=
	OpLt     // <
	OpGe     // >=
	OpGt     // >
	OpToReal // to_real
	OpToInt  // to_int

	// Bitvector arithmetic and comparisons (signed view, as produced by
	// the integer-to-bitvector correspondence).
	OpBVNeg  // bvneg
	OpBVAdd  // bvadd
	OpBVSub  // bvsub
	OpBVMul  // bvmul
	OpBVSDiv // bvsdiv
	OpBVSRem // bvsrem
	OpBVSMod // bvsmod
	OpBVAnd  // bvand
	OpBVOr   // bvor
	OpBVXor  // bvxor
	OpBVNot  // bvnot
	OpBVShl  // bvshl
	OpBVLshr // bvlshr
	OpBVAshr // bvashr
	OpBVUDiv // bvudiv
	OpBVURem // bvurem
	OpBVSLe  // bvsle
	OpBVSLt  // bvslt
	OpBVSGe  // bvsge
	OpBVSGt  // bvsgt
	OpBVULe  // bvule
	OpBVULt  // bvult
	OpBVUGe  // bvuge
	OpBVUGt  // bvugt

	// Overflow predicates (SMT-LIB 2.7 proposal; implemented by Z3 and
	// cvc5, and by this repository's bitvector engine). Each holds iff the
	// corresponding signed operation does NOT overflow... see note below:
	// we follow the standard semantics where the predicate is TRUE when
	// overflow occurs, and the translator asserts their negation.
	OpBVNegO  // bvnego
	OpBVSAddO // bvsaddo
	OpBVSSubO // bvssubo
	OpBVSMulO // bvsmulo
	OpBVSDivO // bvsdivo

	// Floating-point arithmetic and comparisons. Arithmetic ops use the
	// RNE rounding mode implicitly; the printer emits it explicitly.
	OpFPNeg   // fp.neg
	OpFPAbs   // fp.abs
	OpFPAdd   // fp.add
	OpFPSub   // fp.sub
	OpFPMul   // fp.mul
	OpFPDiv   // fp.div
	OpFPLe    // fp.leq
	OpFPLt    // fp.lt
	OpFPGe    // fp.geq
	OpFPGt    // fp.gt
	OpFPEq    // fp.eq
	OpFPIsNaN // fp.isNaN
	OpFPIsInf // fp.isInfinite

	opCount
)

var opNames = map[Op]string{
	OpVar:       "<var>",
	OpIntConst:  "<int>",
	OpRealConst: "<real>",
	OpBVConst:   "<bv>",
	OpFPConst:   "<fp>",
	OpTrue:      "true",
	OpFalse:     "false",
	OpNot:       "not",
	OpAnd:       "and",
	OpOr:        "or",
	OpXor:       "xor",
	OpImplies:   "=>",
	OpEq:        "=",
	OpDistinct:  "distinct",
	OpIte:       "ite",
	OpNeg:       "-",
	OpAdd:       "+",
	OpSub:       "-",
	OpMul:       "*",
	OpDiv:       "/",
	OpIntDiv:    "div",
	OpMod:       "mod",
	OpAbs:       "abs",
	OpLe:        "<=",
	OpLt:        "<",
	OpGe:        ">=",
	OpGt:        ">",
	OpToReal:    "to_real",
	OpToInt:     "to_int",
	OpBVNeg:     "bvneg",
	OpBVAdd:     "bvadd",
	OpBVSub:     "bvsub",
	OpBVMul:     "bvmul",
	OpBVSDiv:    "bvsdiv",
	OpBVSRem:    "bvsrem",
	OpBVSMod:    "bvsmod",
	OpBVAnd:     "bvand",
	OpBVOr:      "bvor",
	OpBVXor:     "bvxor",
	OpBVNot:     "bvnot",
	OpBVShl:     "bvshl",
	OpBVLshr:    "bvlshr",
	OpBVAshr:    "bvashr",
	OpBVUDiv:    "bvudiv",
	OpBVURem:    "bvurem",
	OpBVSLe:     "bvsle",
	OpBVSLt:     "bvslt",
	OpBVSGe:     "bvsge",
	OpBVSGt:     "bvsgt",
	OpBVULe:     "bvule",
	OpBVULt:     "bvult",
	OpBVUGe:     "bvuge",
	OpBVUGt:     "bvugt",
	OpBVNegO:    "bvnego",
	OpBVSAddO:   "bvsaddo",
	OpBVSSubO:   "bvssubo",
	OpBVSMulO:   "bvsmulo",
	OpBVSDivO:   "bvsdivo",
	OpFPNeg:     "fp.neg",
	OpFPAbs:     "fp.abs",
	OpFPAdd:     "fp.add",
	OpFPSub:     "fp.sub",
	OpFPMul:     "fp.mul",
	OpFPDiv:     "fp.div",
	OpFPLe:      "fp.leq",
	OpFPLt:      "fp.lt",
	OpFPGe:      "fp.geq",
	OpFPGt:      "fp.gt",
	OpFPEq:      "fp.eq",
	OpFPIsNaN:   "fp.isNaN",
	OpFPIsInf:   "fp.isInfinite",
}

// String returns the SMT-LIB spelling of the operator (leaf operators use a
// descriptive placeholder).
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return "<invalid-op>"
}

// IsLeaf reports whether the operator is a leaf (variable or constant).
func (o Op) IsLeaf() bool {
	switch o {
	case OpVar, OpIntConst, OpRealConst, OpBVConst, OpFPConst, OpTrue, OpFalse:
		return true
	}
	return false
}
