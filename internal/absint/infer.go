package absint

import (
	"fmt"

	"staub/internal/smt"
)

// DefaultIntX returns the variable width assumption x for an integer
// constraint: the width of the largest constant present, plus one bit
// (Section 4.2, "Soundness and Implications"). Constraints with no
// constants use a small default.
func DefaultIntX(c *smt.Constraint) int {
	bits, ok := c.LargestConstBits()
	if !ok || bits == 0 {
		return 4
	}
	return bits + 1 // one extra (sign) bit beyond the constant magnitude
}

// Semantics selects the abstract transfer functions for integer
// inference.
type Semantics int

// Available semantics.
const (
	// SemSound uses the fully sound transfer functions of Figure 5a
	// (multiplication adds operand widths), matching Theorem 4.5: any
	// satisfying assignment and every intermediate result fit in the
	// inferred width. Sound widths grow quickly with polynomial degree.
	SemSound Semantics = iota
	// SemPractical matches the widths the paper's evaluation reports
	// (average 13.1 bits, width 12 for the Figure 1 example):
	// multiplication takes the maximum child width, addition grows by
	// one. The result underapproximates more aggressively; the
	// verification step (Section 4.4) restores end-to-end correctness.
	SemPractical
)

// IntResult is the outcome of integer bound inference.
type IntResult struct {
	// Root is [S]: the width sufficient for every value and intermediate
	// result, assuming variables fit in X bits.
	Root int
	// X is the variable width assumption used.
	X int
	// PerNode gives the inferred width of every DAG node.
	PerNode map[*smt.Term]int
}

// InferInt runs the sound Figure 5a abstract semantics over every
// assertion of c with variable width assumption x and returns the joined
// root width.
func InferInt(c *smt.Constraint, x int) IntResult {
	return InferIntWith(c, x, SemSound)
}

// InferIntWith is InferInt with an explicit choice of semantics.
func InferIntWith(c *smt.Constraint, x int, sem Semantics) IntResult {
	res := IntResult{X: x, PerNode: make(map[*smt.Term]int, c.NumNodes())}
	root := 1
	for _, a := range c.Assertions {
		w := inferIntTerm(a, x, sem, res.PerNode)
		if w > root {
			root = w
		}
	}
	res.Root = root
	return res
}

func inferIntTerm(t *smt.Term, x int, sem Semantics, memo map[*smt.Term]int) int {
	if w, ok := memo[t]; ok {
		return w
	}
	var w int
	switch t.Op {
	case smt.OpVar:
		if t.Sort.Kind == smt.KindBool {
			w = 1
		} else {
			w = x
		}
	case smt.OpIntConst:
		w = t.IntVal.BitLen() + 1
	case smt.OpTrue, smt.OpFalse:
		w = 1
	case smt.OpNeg, smt.OpAbs:
		// Negating or taking |.| of the minimum value needs one extra
		// bit (e.g. -(-8) on 4 bits).
		w = inferIntTerm(t.Args[0], x, sem, memo) + 1
	case smt.OpAdd, smt.OpSub:
		// Addition of k operands can grow by ceil(log2(k)) bits; the
		// practical semantics charges one bit per application as in the
		// paper's Figure 4 walkthrough.
		m := 0
		for _, a := range t.Args {
			m = max(m, inferIntTerm(a, x, sem, memo))
		}
		if sem == SemSound {
			w = m + bitsForCount(len(t.Args))
		} else {
			w = m + 1
		}
	case smt.OpMul:
		if sem == SemSound {
			w = 0
			for _, a := range t.Args {
				w += inferIntTerm(a, x, sem, memo)
			}
		} else {
			// Practical semantics: products of interesting solutions are
			// anchored by the constraint's constants, so the width is
			// kept at the operand level and guards catch the rest.
			w = 0
			for _, a := range t.Args {
				w = max(w, inferIntTerm(a, x, sem, memo))
			}
		}
	case smt.OpIntDiv:
		// Quotient magnitude is bounded by the dividend, except
		// min / -1 which needs one more bit.
		w = inferIntTerm(t.Args[0], x, sem, memo) + 1
		inferIntTerm(t.Args[1], x, sem, memo)
	case smt.OpMod:
		// Result magnitude is bounded by the divisor.
		inferIntTerm(t.Args[0], x, sem, memo)
		w = inferIntTerm(t.Args[1], x, sem, memo)
	case smt.OpIte:
		c := inferIntTerm(t.Args[0], x, sem, memo)
		w = max(c, max(inferIntTerm(t.Args[1], x, sem, memo), inferIntTerm(t.Args[2], x, sem, memo)))
	default:
		// Boolean connectives and comparisons: propagate the maximum
		// child width upward (Figure 5a "boolop").
		w = 1
		for _, a := range t.Args {
			w = max(w, inferIntTerm(a, x, sem, memo))
		}
	}
	memo[t] = w
	return w
}

// bitsForCount returns the bit growth of a sum of n equally-sized
// operands: ceil(log2(n)), and at least 1 for the binary case.
func bitsForCount(n int) int {
	b := 0
	for v := n - 1; v > 0; v >>= 1 {
		b++
	}
	return max(b, 1)
}

// DefaultRealX returns the variable assumption (x_m, x_p) for a real
// constraint, derived from the largest constant magnitude and the largest
// constant precision, each plus one.
func DefaultRealX(c *smt.Constraint) MP {
	xm, xp := 3, 1
	for _, a := range c.Assertions {
		a.Walk(func(t *smt.Term) bool {
			if t.Op != smt.OpRealConst {
				return true
			}
			if m := smt.CeilAbsBits(t.RatVal) + 2; m > xm {
				xm = m
			}
			if d, ok := smt.DigBits(t.RatVal); ok && d+1 > xp {
				xp = d + 1
			}
			return true
		})
	}
	return MP{M: xm, P: xp}
}

// RealResult is the outcome of real bound inference.
type RealResult struct {
	Root    MP
	X       MP
	PerNode map[*smt.Term]MP
}

// InferReal runs the Figure 5b abstract semantics over every assertion of
// c with variable assumption x. Division uses the modified semantics from
// the paper's implementation note ((m1+m2, p1+p2)) so the result precision
// stays finite whenever the inputs are finite.
func InferReal(c *smt.Constraint, x MP) RealResult {
	res := RealResult{X: x, PerNode: make(map[*smt.Term]MP, c.NumNodes())}
	root := MP{M: 1}
	for _, a := range c.Assertions {
		root = root.Join(inferRealTerm(a, x, res.PerNode))
	}
	res.Root = root
	return res
}

func inferRealTerm(t *smt.Term, x MP, memo map[*smt.Term]MP) MP {
	if v, ok := memo[t]; ok {
		return v
	}
	var v MP
	switch t.Op {
	case smt.OpVar:
		if t.Sort.Kind == smt.KindBool {
			v = MP{M: 1}
		} else {
			v = x
		}
	case smt.OpRealConst:
		v.M = smt.CeilAbsBits(t.RatVal) + 1
		if d, ok := smt.DigBits(t.RatVal); ok {
			v.P = d
		} else {
			v.PInf = true
		}
	case smt.OpIntConst:
		v = MP{M: t.IntVal.BitLen() + 1}
	case smt.OpTrue, smt.OpFalse:
		v = MP{M: 1}
	case smt.OpNeg:
		v = inferRealTerm(t.Args[0], x, memo)
		v.M++
	case smt.OpAdd, smt.OpSub:
		for i, a := range t.Args {
			av := inferRealTerm(a, x, memo)
			if i == 0 {
				v = av
			} else {
				v = v.Join(av)
			}
		}
		v.M += bitsForCount(len(t.Args))
	case smt.OpMul, smt.OpDiv:
		// Multiplication: magnitudes add and precisions add. Division
		// uses the same rule by the implementation modification.
		for i, a := range t.Args {
			av := inferRealTerm(a, x, memo)
			if i == 0 {
				v = av
				continue
			}
			v.M += av.M
			p, inf := addP(v, av)
			v.P, v.PInf = p, inf
		}
	case smt.OpIte:
		c := inferRealTerm(t.Args[0], x, memo)
		v = c.Join(inferRealTerm(t.Args[1], x, memo)).Join(inferRealTerm(t.Args[2], x, memo))
	default:
		v = MP{M: 1}
		for _, a := range t.Args {
			v = v.Join(inferRealTerm(a, x, memo))
		}
	}
	memo[t] = v
	return v
}

// Width selection: converting abstract results into concrete bounded
// sorts.

// Bounds on the sorts the inference may select. The paper clamps
// implicitly by reverting to the original constraint when bounds are
// insufficient.
const (
	MinWidth = 4  // minimum bitvector width
	MaxWidth = 64 // maximum bitvector width (machine-word semantics)
	maxSig   = 53 // maximum FP significand bits
	maxPrec  = 24 // precision cap substituted for infinite P
)

// SelectBVWidth clamps an inferred root width into [MinWidth, MaxWidth].
func SelectBVWidth(root int) int {
	return min(max(root, MinWidth), MaxWidth)
}

// SelectFPSort converts an inferred (m, p) into a floating-point sort able
// to represent every concretized value exactly: the significand must hold
// m-1 integer bits plus p fractional bits, and the exponent range must
// reach both 2^m and 2^-p.
func SelectFPSort(root MP) smt.Sort {
	p := root.P
	if root.PInf || p > maxPrec {
		p = maxPrec
	}
	sb := min(max(root.M+p, 3), maxSig)
	// Exponent field: bias must exceed both the magnitude exponent and
	// the subnormal reach.
	need := max(root.M+1, p+sb)
	eb := 3
	for (1<<(eb-1))-1 < need {
		eb++
		if eb >= 28 {
			break
		}
	}
	return smt.FloatSort(eb, sb)
}

// String renders an MP for diagnostics.
func (a MP) String() string {
	if a.PInf {
		return fmt.Sprintf("(m=%d, p=∞)", a.M)
	}
	return fmt.Sprintf("(m=%d, p=%d)", a.M, a.P)
}
