package bitblast

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"staub/internal/eval"
	"staub/internal/fp"
	"staub/internal/sat"
	"staub/internal/smt"
)

// fpOracle encodes every floating-point circuit over two free operands x
// and y of one format, through the term path Encode uses, so each check
// fixes the operands' bits with SolveAssuming and compares every
// circuit's output with the exact evaluator, which computes with
// internal/fp.
type fpOracle struct {
	f     fp.Format
	s     *sat.Solver
	b     *Blaster
	terms []*smt.Term
	outs  [][]sat.Lit // per term: its bits, or its one literal
	x, y  []sat.Lit
}

func newFPOracle(t testing.TB, f fp.Format) *fpOracle {
	t.Helper()
	sort := smt.FloatSort(f.EB, f.SB)
	c := smt.NewConstraint("QF_FP")
	bd := c.Builder
	x, y := c.MustDeclare("x", sort), c.MustDeclare("y", sort)
	var terms []*smt.Term
	for _, op := range []smt.Op{smt.OpFPAdd, smt.OpFPSub, smt.OpFPMul, smt.OpFPDiv,
		smt.OpFPLt, smt.OpFPLe, smt.OpFPGt, smt.OpFPGe, smt.OpFPEq, smt.OpEq, smt.OpDistinct} {
		terms = append(terms, bd.MustApply(op, x, y))
	}
	for _, op := range []smt.Op{smt.OpFPNeg, smt.OpFPAbs, smt.OpFPIsNaN, smt.OpFPIsInf} {
		terms = append(terms, bd.MustApply(op, x))
	}
	s := sat.New()
	b := New(s)
	if err := b.Encode(c); err != nil {
		t.Fatal(err)
	}
	o := &fpOracle{f: f, s: s, b: b, terms: terms, x: b.bits[x], y: b.bits[y]}
	for _, tm := range terms {
		if tm.Sort.Kind == smt.KindFloat {
			v, err := b.bvTerm(tm)
			if err != nil {
				t.Fatal(err)
			}
			o.outs = append(o.outs, v)
			continue
		}
		l, err := b.boolTerm(tm)
		if err != nil {
			t.Fatal(err)
		}
		o.outs = append(o.outs, []sat.Lit{l})
	}
	return o
}

// check fixes x and y to the patterns xb and yb and reports the first
// circuit whose output differs from the evaluator's (every NaN is one
// value).
func (o *fpOracle) check(xb, yb *big.Int) error {
	var assume []sat.Lit
	for i := range o.x {
		assume = append(assume, fixLit(o.x[i], xb.Bit(i) == 1), fixLit(o.y[i], yb.Bit(i) == 1))
	}
	if st := o.s.SolveAssuming(assume...); st != sat.Sat {
		return fmt.Errorf("%v x=%#x y=%#x: circuits answered %v with the operands fixed", o.f, xb, yb, st)
	}
	asg := eval.Assignment{"x": eval.FPValue(fp.FromBits(o.f, xb)), "y": eval.FPValue(fp.FromBits(o.f, yb))}
	for i, tm := range o.terms {
		want, err := eval.Term(tm, asg)
		if err != nil {
			return err
		}
		got := new(big.Int)
		for j, l := range o.outs[i] {
			if o.b.litVal(l) {
				got.SetBit(got, j, 1)
			}
		}
		if tm.Sort.Kind != smt.KindFloat {
			if (got.Sign() != 0) != want.Bool {
				return fmt.Errorf("%v %s x=%v y=%v: circuit %t, fp %t", o.f, tm.Op, asg["x"], asg["y"], got.Sign() != 0, want.Bool)
			}
			continue
		}
		gv := fp.FromBits(o.f, got)
		if gv.IsNaN() != want.FP.IsNaN() || !gv.IsNaN() && got.Cmp(want.FP.Bits()) != 0 {
			return fmt.Errorf("%v %s x=%v y=%v: circuit %v (%#x), fp %v (%#x)", o.f, tm.Op, asg["x"], asg["y"], gv, got, want.FP, want.FP.Bits())
		}
	}
	return nil
}

// fixLit returns the literal that sets l to val.
func fixLit(l sat.Lit, val bool) sat.Lit {
	if val {
		return l
	}
	return l.Not()
}

// TestFPCircuitsExhaustive checks every circuit on every operand pair of
// each format of at most 7 bits against internal/fp, bit for bit. Each
// pair is one SolveAssuming call, about 0.2 ms at (3,4) and 20 times that
// under the race detector, so an 8-bit format would add minutes there.
func TestFPCircuitsExhaustive(t *testing.T) {
	for _, f := range []fp.Format{{EB: 2, SB: 2}, {EB: 2, SB: 3}, {EB: 3, SB: 2}, {EB: 2, SB: 4},
		{EB: 3, SB: 3}, {EB: 4, SB: 2}, {EB: 3, SB: 4}} {
		o := newFPOracle(t, f)
		n := int64(1) << f.TotalBits()
		for xb := int64(0); xb < n; xb++ {
			for yb := int64(0); yb < n; yb++ {
				if err := o.check(big.NewInt(xb), big.NewInt(yb)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestFPCircuitsSweep checks every circuit on seeded operand pairs at the
// corpus's formats, from (5,11) to (11,53), and at (11,60), whose 71-bit
// patterns make the big.Rat path internal/fp's reference. Half the
// operands are drawn near the special values and the binade edges.
func TestFPCircuitsSweep(t *testing.T) {
	const pairs = 8
	for _, f := range []fp.Format{{EB: 5, SB: 11}, {EB: 6, SB: 18}, {EB: 6, SB: 24}, {EB: 7, SB: 38},
		{EB: 8, SB: 24}, {EB: 8, SB: 40}, {EB: 11, SB: 53}, {EB: 11, SB: 60}} {
		o := newFPOracle(t, f)
		rng := rand.New(rand.NewSource(int64(f.EB*100 + f.SB)))
		for i := 0; i < pairs; i++ {
			if err := o.check(randFPPattern(rng, f), randFPPattern(rng, f)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// randFPPattern draws a pattern of f: uniform half the time, otherwise a
// special value, a subnormal, or a value near the edge of the normal
// range, with a random sign.
func randFPPattern(rng *rand.Rand, f fp.Format) *big.Int {
	total := f.TotalBits()
	uniform := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(total)))
	if rng.Intn(2) == 0 {
		return uniform
	}
	frac := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(f.SB-1)))
	var expField int64
	switch rng.Intn(6) {
	case 0:
		frac.SetInt64(0) // a zero or an infinity
		expField = []int64{0, 1<<f.EB - 1}[rng.Intn(2)]
	case 1:
		expField = 1<<f.EB - 1 // an infinity or a NaN
	case 2:
		expField = 0 // a subnormal
	case 3:
		expField = 1 + rng.Int63n(2)
	case 4:
		expField = 1<<f.EB - 2 - rng.Int63n(2)
	default:
		expField = int64(f.Bias()) + rng.Int63n(5) - 2
	}
	out := new(big.Int).Lsh(big.NewInt(expField), uint(f.SB-1))
	out.Or(out, frac)
	if rng.Intn(2) == 0 {
		out.SetBit(out, total-1, 1)
	}
	return out
}

// FuzzFPCircuits checks every circuit on one operand pair of a format
// with EB 2–5 and SB 2–8 against internal/fp. The seeds, at (3,4), are
// subnormals, an exact cancellation, a carry into the next binade,
// overflow by rounding, 0·∞, ∞−∞ and 0/0.
func FuzzFPCircuits(f *testing.F) {
	for _, xy := range [][2]uint64{
		{0b0000001, 0b0000011}, // subnormals
		{0b0011010, 0b1011010}, // x + (−x)
		{0b0011111, 0b0000010}, // 1.875 + 1/16 rounds up to 2
		{0b0110111, 0b0010000}, // 15 + 1/2 rounds up to ∞
		{0b0000000, 0b0111000}, // 0·∞
		{0b0111000, 0b1111000}, // ∞ + (−∞)
		{0b0000000, 0b1000000}, // 0/−0
	} {
		f.Add(uint8(1), uint8(2), xy[0], xy[1])
	}
	oracles := map[fp.Format]*fpOracle{}
	f.Fuzz(func(t *testing.T, eb, sb uint8, x, y uint64) {
		format := fp.Format{EB: 2 + int(eb%4), SB: 2 + int(sb%7)}
		o := oracles[format]
		if o == nil {
			o = newFPOracle(t, format)
			oracles[format] = o
		}
		mask := uint64(1)<<format.TotalBits() - 1
		if err := o.check(new(big.Int).SetUint64(x&mask), new(big.Int).SetUint64(y&mask)); err != nil {
			t.Fatal(err)
		}
	})
}
