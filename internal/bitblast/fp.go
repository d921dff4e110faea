package bitblast

import (
	"fmt"
	"math/big"
	"math/bits"

	"staub/internal/fp"
	"staub/internal/sat"
	"staub/internal/smt"
)

// Floating-point circuits. A (_ FloatingPoint eb sb) term is the vector
// of its eb+sb pattern bits, least significant first: the fraction, the
// exponent field, then the sign. Arithmetic rounds to nearest even and
// follows internal/fp's word kernel step by step: unpack each operand to
// its class, a significand normalized by its leading-zero count and the
// signed biased exponent of its leading bit; align addends with a sticky
// bit; multiply on the one multiplier; divide through a fresh quotient
// and remainder; then one round-and-pack step rounds once. Every NaN an
// operation produces is the canonical pattern, the one fp.Format.NaN
// returns.

// fpOperand is an unpacked operand. sig and exp are meaningful only for
// a finite nonzero operand: sig has its leading one at bit sb-1 and exp
// is the biased exponent of that bit, so a subnormal's exponent drops
// below 1 by its leading-zero count.
type fpOperand struct {
	sign, nan, inf, zero sat.Lit
	sig, exp             []sat.Lit
}

// expWidth is the width of the signed exponent vectors: wide enough for
// the sum or difference of two biased exponents, each possibly a
// subnormal's, plus a bias.
func expWidth(f fp.Format) int { return max(f.EB, bits.Len(uint(f.SB))) + 3 }

func (b *Blaster) constInt(w int, v int64) []sat.Lit { return b.constVec(w, big.NewInt(v)) }

// fpClass returns x's sign and its NaN, infinity and zero tests.
func (b *Blaster) fpClass(f fp.Format, x []sat.Lit) (sign, nan, inf, zero sat.Lit) {
	frac, ef := x[:f.SB-1], x[f.SB-1:len(x)-1]
	expOnes, expZero := b.bigAnd(ef), b.bigOr(ef).Not()
	fracZero := b.bigOr(frac).Not()
	return x[len(x)-1], b.and2(expOnes, fracZero.Not()), b.and2(expOnes, fracZero), b.and2(expZero, fracZero)
}

func (b *Blaster) fpUnpack(f fp.Format, x []sat.Lit) fpOperand {
	var o fpOperand
	o.sign, o.nan, o.inf, o.zero = b.fpClass(f, x)
	ef := x[f.SB-1 : len(x)-1]
	expZero := b.bigOr(ef).Not()
	sig := append(append([]sat.Lit{}, x[:f.SB-1]...), expZero.Not())
	var lz []sat.Lit
	o.sig, lz = b.normalizeVec(sig)
	// A subnormal's exponent field is 0 but its quantum is EMin's, the
	// quantum of field 1.
	e := b.zext(ef, expWidth(f))
	e[0] = b.or2(e[0], expZero)
	o.exp = b.subVec(e, b.zext(lz, len(e)))
	return o
}

// normalizeVec shifts x left until its top bit is set and returns the
// shifted vector with the shift count (x = 0 gives an unspecified
// count). Each stage shifts by a power of two when that many top bits
// are zero, largest first.
func (b *Blaster) normalizeVec(x []sat.Lit) (out, lz []sat.Lit) {
	w := len(x)
	lz = make([]sat.Lit, max(bits.Len(uint(w-1)), 1))
	for i := range lz {
		lz[i] = b.fLit()
	}
	out = x
	for j := len(lz) - 1; j >= 0; j-- {
		s := 1 << j
		if s >= w {
			continue
		}
		z := b.bigOr(out[w-s:]).Not()
		shifted := make([]sat.Lit, w)
		for i := range shifted {
			if i >= s {
				shifted[i] = out[i-s]
			} else {
				shifted[i] = b.fLit()
			}
		}
		out = b.muxVec(z, shifted, out)
		lz[j] = z
	}
	return out, lz
}

// shiftRightJam shifts x right by the unsigned amount amt and ORs every
// bit shifted out into bit 0, so bit 0 stays a sticky bit.
func (b *Blaster) shiftRightJam(x, amt []sat.Lit) []sat.Lit {
	w := len(x)
	cur := x
	over := b.fLit()
	for j, a := range amt {
		s := 1 << min(j, 30)
		if s >= w {
			over = b.or2(over, a)
			continue
		}
		shifted := make([]sat.Lit, w)
		for i := range shifted {
			if i+s < w {
				shifted[i] = cur[i+s]
			} else {
				shifted[i] = b.fLit()
			}
		}
		shifted[0] = b.bigOr(cur[:s+1])
		cur = b.muxVec(a, shifted, cur)
	}
	all := make([]sat.Lit, w)
	all[0] = b.bigOr(cur)
	for i := 1; i < w; i++ {
		all[i] = b.fLit()
	}
	return b.muxVec(over, all, cur)
}

// fpRoundPack rounds sig·2^(exp−bias−(sb+1)) to nearest even and returns
// the magnitude pattern. sig has sb+2 bits: sb kept bits led by a one at
// bit sb+1, a guard bit and a sticky bit; exp is a signed biased
// exponent. Below the normal range sig shifts right with jamming to
// EMin's quantum. The pack adds the rounded significand to (exp−1) placed
// at the exponent field, so a rounding carry moves into the next binade
// or to infinity, and a subnormal rounded up becomes the smallest normal.
// An exponent past the largest normal one overflows to infinity.
func (b *Blaster) fpRoundPack(f fp.Format, sig, exp []sat.Lit) []sat.Lit {
	ew := len(exp)
	one := b.constInt(ew, 1)
	sub := b.sltVec(exp, one)
	amt := b.subVec(one, exp)
	for i := range amt {
		amt[i] = b.and2(amt[i], sub)
	}
	sig = b.shiftRightJam(sig, amt)
	e := b.muxVec(sub, one, exp)
	q := sig[2:]
	up := b.and2(sig[1], b.or2(sig[0], q[0]))
	width := f.EB + f.SB - 1
	field := make([]sat.Lit, width)
	for i := range field {
		field[i] = b.fLit()
	}
	copy(field[f.SB-1:], b.subVec(e, one)[:f.EB])
	mag, _ := b.addVec(field, b.zext(q, width), up)
	ovf := b.sltVec(exp, b.constInt(ew, 1<<f.EB-1)).Not()
	return b.muxVec(ovf, b.fpInfMag(f), mag)
}

func (b *Blaster) fpInfMag(f fp.Format) []sat.Lit {
	return b.constVec(f.EB+f.SB-1, f.Inf(false).Bits())
}

// fpPack joins a sign literal and a magnitude.
func fpPack(sign sat.Lit, mag []sat.Lit) []sat.Lit {
	return append(append([]sat.Lit{}, mag...), sign)
}

// fpSpecial selects the result of an operation: NaN when nan holds,
// otherwise a signed infinity when inf holds, a signed zero when zero
// holds, and the rounded finite result fin.
func (b *Blaster) fpSpecial(f fp.Format, nan, inf, zero, sign sat.Lit, fin []sat.Lit) []sat.Lit {
	out := b.muxVec(zero, fpPack(sign, b.constInt(len(fin)-1, 0)), fin)
	out = b.muxVec(inf, fpPack(sign, b.fpInfMag(f)), out)
	return b.muxVec(nan, b.constVec(len(fin), f.NaN().Bits()), out)
}

// fpAdd returns x + y; fp.sub is x + (−y). The larger magnitude leads,
// the smaller aligns to it with a sticky bit (three bits below the
// significand suffice), one adder adds or subtracts, and the sum is
// renormalized by its leading-zero count before rounding.
func (b *Blaster) fpAdd(f fp.Format, x, y []sat.Lit) []sat.Lit {
	a, c := b.fpUnpack(f, x), b.fpUnpack(f, y)
	swap := b.ultVec(x[:len(x)-1], y[:len(y)-1])
	sign := b.mux(swap, c.sign, a.sign)
	leadSig, leadExp := b.muxVec(swap, c.sig, a.sig), b.muxVec(swap, c.exp, a.exp)
	trailSig, trailExp := b.muxVec(swap, a.sig, c.sig), b.muxVec(swap, a.exp, c.exp)
	subtract := b.xor2(a.sign, c.sign)

	w := f.SB + 4
	frame := func(sig []sat.Lit) []sat.Lit {
		return b.zext(append([]sat.Lit{b.fLit(), b.fLit(), b.fLit()}, sig...), w)
	}
	trail := b.shiftRightJam(frame(trailSig), b.subVec(leadExp, trailExp))
	for i := range trail {
		trail[i] = b.xor2(trail[i], subtract)
	}
	sum, _ := b.addVec(frame(leadSig), trail, subtract)
	cancel := b.bigOr(sum).Not()
	norm, lz := b.normalizeVec(sum)
	exp := b.subVec(b.addVec1(leadExp), b.zext(lz, len(leadExp)))
	sig := append([]sat.Lit{b.bigOr(norm[:3])}, norm[3:]...)
	fin := fpPack(sign, b.fpRoundPack(f, sig, exp))

	fin = b.muxVec(cancel, b.constInt(len(x), 0), fin)
	fin = b.muxVec(c.zero, x, fin)
	fin = b.muxVec(a.zero, y, fin)
	fin = b.muxVec(b.and2(a.zero, c.zero), fpPack(b.and2(a.sign, c.sign), b.constInt(len(x)-1, 0)), fin)
	fin = b.muxVec(c.inf, y, fin)
	fin = b.muxVec(a.inf, x, fin)
	nan := b.or2(b.or2(a.nan, c.nan), b.and2(b.and2(a.inf, c.inf), subtract))
	return b.muxVec(nan, b.constVec(len(x), f.NaN().Bits()), fin)
}

// addVec1 returns x + 1.
func (b *Blaster) addVec1(x []sat.Lit) []sat.Lit {
	out, _ := b.addVec(x, b.constInt(len(x), 0), b.tLit)
	return out
}

// fpMul returns x · y: the 2sb-bit product of the significands, shifted
// left once when its top bit is clear, keeps sb bits and a guard bit, and
// its low bits compress to the sticky bit.
func (b *Blaster) fpMul(f fp.Format, x, y []sat.Lit) []sat.Lit {
	a, c := b.fpUnpack(f, x), b.fpUnpack(f, y)
	sign := b.xor2(a.sign, c.sign)
	p := b.mul(a.sig, c.sig, 2*f.SB, false)
	top := p[2*f.SB-1]
	shifted := append([]sat.Lit{b.fLit()}, p[:2*f.SB-1]...)
	p = b.muxVec(top, p, shifted)
	sig := append([]sat.Lit{b.bigOr(p[:f.SB-1])}, p[f.SB-1:]...)
	exp, _ := b.addVec(a.exp, c.exp, top)
	exp, _ = b.addVec(exp, b.constInt(len(exp), int64(-f.Bias())), b.fLit())
	fin := fpPack(sign, b.fpRoundPack(f, sig, exp))
	nan := b.or2(b.or2(a.nan, c.nan), b.or2(b.and2(a.inf, c.zero), b.and2(a.zero, c.inf)))
	return b.fpSpecial(f, nan, b.or2(a.inf, c.inf), b.or2(a.zero, c.zero), sign, fin)
}

// fpDiv returns x / y through a fresh quotient Q and remainder R of the
// significands: sigx·2^(sb+1) = Q·sigy + R with R < sigy, asserted only
// when both operands are finite and nonzero (the others take a special
// result). Q has its leading one at bit sb+1 or sb; a nonzero R is the
// sticky bit.
func (b *Blaster) fpDiv(f fp.Format, x, y []sat.Lit) []sat.Lit {
	a, c := b.fpUnpack(f, x), b.fpUnpack(f, y)
	sign := b.xor2(a.sign, c.sign)
	q, r := b.freshVec(f.SB+2), b.freshVec(f.SB)
	n := 2*f.SB + 2
	finite := b.bigOr([]sat.Lit{a.nan, a.inf, a.zero, c.nan, c.inf, c.zero}).Not()
	prod := b.mul(q, b.zext(c.sig, len(q)), n, false)
	lhs, _ := b.addVec(prod, b.zext(r, n), b.fLit())
	dividend := b.zext(append(b.constInt(f.SB+1, 0), a.sig...), n)
	b.implyEqVec(finite, lhs, dividend)
	b.imply(finite, b.ultVec(r, c.sig))

	top := q[f.SB+1]
	rem := b.bigOr(r)
	sig := b.muxVec(top,
		append([]sat.Lit{b.or2(q[0], rem)}, q[1:]...),
		append([]sat.Lit{rem}, q[:f.SB+1]...))
	exp, _ := b.addVec(a.exp, b.notVec(c.exp), top) // a.exp − c.exp − 1 + top
	exp, _ = b.addVec(exp, b.constInt(len(exp), int64(f.Bias())), b.fLit())
	fin := fpPack(sign, b.fpRoundPack(f, sig, exp))
	nan := b.or2(b.or2(a.nan, c.nan), b.or2(b.and2(a.inf, c.inf), b.and2(a.zero, c.zero)))
	return b.fpSpecial(f, nan, b.or2(a.inf, c.zero), b.or2(a.zero, c.inf), sign, fin)
}

// fpLt is fp.lt: false when either operand is NaN or both are zeros,
// otherwise the sign-magnitude order of the patterns.
func (b *Blaster) fpLt(f fp.Format, x, y []sat.Lit) sat.Lit {
	sx, nanX, _, zeroX := b.fpClass(f, x)
	sy, nanY, _, zeroY := b.fpClass(f, y)
	mx, my := x[:len(x)-1], y[:len(y)-1]
	ordered := b.mux(sx, b.mux(sy, b.ultVec(my, mx), b.tLit), b.mux(sy, b.fLit(), b.ultVec(mx, my)))
	return b.bigAnd([]sat.Lit{nanX.Not(), nanY.Not(), b.and2(zeroX, zeroY).Not(), ordered})
}

// fpEq is fp.eq: no NaN equals anything, and the two zeros are equal.
func (b *Blaster) fpEq(f fp.Format, x, y []sat.Lit) sat.Lit {
	_, nanX, _, zeroX := b.fpClass(f, x)
	_, nanY, _, zeroY := b.fpClass(f, y)
	return b.bigAnd([]sat.Lit{nanX.Not(), nanY.Not(), b.or2(b.and2(zeroX, zeroY), b.eqVec(x, y))})
}

// fpSame is SMT-LIB = on floating point, eval's rule: every NaN is one
// value, and otherwise values are equal when their patterns are, so
// +0 ≠ −0.
func (b *Blaster) fpSame(f fp.Format, x, y []sat.Lit) sat.Lit {
	_, nanX, _, _ := b.fpClass(f, x)
	_, nanY, _, _ := b.fpClass(f, y)
	return b.or2(b.and2(nanX, nanY), b.eqVec(x, y))
}

// fpPredicate encodes a floating-point comparison or class test.
func (b *Blaster) fpPredicate(t *smt.Term) (sat.Lit, error) {
	f := smt.FPFormat(t.Args[0].Sort)
	x, err := b.bvTerm(t.Args[0])
	if err != nil {
		return 0, err
	}
	switch t.Op {
	case smt.OpFPIsNaN:
		_, nan, _, _ := b.fpClass(f, x)
		return nan, nil
	case smt.OpFPIsInf:
		_, _, inf, _ := b.fpClass(f, x)
		return inf, nil
	}
	y, err := b.bvTerm(t.Args[1])
	if err != nil {
		return 0, err
	}
	switch t.Op {
	case smt.OpFPEq:
		return b.fpEq(f, x, y), nil
	case smt.OpFPLt:
		return b.fpLt(f, x, y), nil
	case smt.OpFPGt:
		return b.fpLt(f, y, x), nil
	case smt.OpFPLe:
		return b.or2(b.fpLt(f, x, y), b.fpEq(f, x, y)), nil
	default: // OpFPGe
		return b.or2(b.fpLt(f, y, x), b.fpEq(f, x, y)), nil
	}
}

// fpTerm encodes a floating-point term other than a variable or an ite.
func (b *Blaster) fpTerm(t *smt.Term) ([]sat.Lit, error) {
	f := smt.FPFormat(t.Sort)
	if t.Op == smt.OpFPConst {
		return b.constVec(f.TotalBits(), smt.FPValueOf(t).Bits()), nil
	}
	args := make([][]sat.Lit, len(t.Args))
	for i, a := range t.Args {
		v, err := b.bvTerm(a)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	switch t.Op {
	case smt.OpFPNeg, smt.OpFPAbs:
		sign := args[0][len(args[0])-1].Not()
		if t.Op == smt.OpFPAbs {
			sign = b.fLit()
		}
		return fpPack(sign, args[0][:len(args[0])-1]), nil
	case smt.OpFPAdd:
		return b.fpAdd(f, args[0], args[1]), nil
	case smt.OpFPSub:
		return b.fpAdd(f, args[0], fpPack(args[1][len(args[1])-1].Not(), args[1][:len(args[1])-1])), nil
	case smt.OpFPMul:
		return b.fpMul(f, args[0], args[1]), nil
	case smt.OpFPDiv:
		return b.fpDiv(f, args[0], args[1]), nil
	}
	return nil, fmt.Errorf("bitblast: unsupported floating-point operator %v", t.Op)
}
