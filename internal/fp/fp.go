// Package fp implements parameterized IEEE-754 binary floating-point
// arithmetic in software ("softfloat"). A Format carries an arbitrary
// exponent width EB and significand width SB (including the hidden bit),
// matching the SMT-LIB (_ FloatingPoint eb sb) sort family; values are
// represented by their raw bit patterns, and every operation rounds with
// round-to-nearest-even (RNE), the rounding mode STAUB's translation uses.
//
// Each operation picks one of two paths from its operands' format, and
// both give the same bits. A format whose pattern fits a uint64 with
// SB ≤ 60 (Float16/32/64 and every sort STAUB's translation sizes) runs
// on a word kernel that computes on machine words, SoftFloat style
// (word.go). Wider formats compute exactly with math/big and round once;
// that path is also the reference the word kernel is tested against.
package fp

import (
	"fmt"
	"math/big"
)

// Format identifies a floating-point sort: EB exponent bits and SB
// significand bits including the hidden bit (so Float32 is {8, 24}).
type Format struct {
	EB, SB int
}

// Standard formats.
var (
	Float16 = Format{5, 11}
	Float32 = Format{8, 24}
	Float64 = Format{11, 53}
)

// TotalBits returns the width of the bit representation.
func (f Format) TotalBits() int { return 1 + f.EB + (f.SB - 1) }

// Bias returns the exponent bias 2^(EB-1)-1.
func (f Format) Bias() int { return 1<<(f.EB-1) - 1 }

// EMin returns the minimum normal exponent.
func (f Format) EMin() int { return 1 - f.Bias() }

// EMax returns the maximum normal exponent.
func (f Format) EMax() int { return f.Bias() }

// Valid reports whether the format is well-formed.
func (f Format) Valid() bool { return f.EB >= 2 && f.SB >= 2 && f.EB <= 30 && f.SB <= 4096 }

func (f Format) String() string { return fmt.Sprintf("(_ FloatingPoint %d %d)", f.EB, f.SB) }

// MaxFinite returns the largest finite value of the format as an exact
// rational: (2 - 2^(1-SB)) * 2^EMax.
func (f Format) MaxFinite() *big.Rat {
	// (2^SB - 1) * 2^(EMax - SB + 1)
	m := new(big.Int).Lsh(big.NewInt(1), uint(f.SB))
	m.Sub(m, big.NewInt(1))
	return ratShift(new(big.Rat).SetInt(m), f.EMax()-f.SB+1)
}

// Value is a single floating-point datum of some format. The zero Value is
// invalid; construct values with FromBits, FromRat or the Format helpers.
type Value struct {
	fmt  Format
	bits *big.Int
}

// Format returns the value's format.
func (v Value) Format() Format { return v.fmt }

// Bits returns the raw bit pattern (a fresh copy).
func (v Value) Bits() *big.Int { return new(big.Int).Set(v.bits) }

// FromBits returns the value of the given format with raw bit pattern
// bits. Bits beyond the format width are ignored.
func FromBits(f Format, bits *big.Int) Value {
	if f.wordSized() && bits.Sign() >= 0 && bits.BitLen() <= 64 {
		return f.fromPattern(bits.Uint64() & (^uint64(0) >> (64 - f.TotalBits())))
	}
	return fromBitsBig(f, bits)
}

// fromBitsBig is FromBits on math/big: the path for wider formats and
// out-of-range patterns, and the word path's reference.
func fromBitsBig(f Format, bits *big.Int) Value {
	mask := new(big.Int).Lsh(big.NewInt(1), uint(f.TotalBits()))
	mask.Sub(mask, big.NewInt(1))
	b := new(big.Int).And(bits, mask)
	return Value{fmt: f, bits: b}
}

// components splits the value into sign, exponent field, and fraction field.
func (v Value) components() (sign uint, expField, frac *big.Int) {
	total := v.fmt.TotalBits()
	sign = v.bits.Bit(total - 1)
	fracBits := uint(v.fmt.SB - 1)
	fracMask := new(big.Int).Lsh(big.NewInt(1), fracBits)
	fracMask.Sub(fracMask, big.NewInt(1))
	frac = new(big.Int).And(v.bits, fracMask)
	expField = new(big.Int).Rsh(v.bits, fracBits)
	expMask := new(big.Int).Lsh(big.NewInt(1), uint(v.fmt.EB))
	expMask.Sub(expMask, big.NewInt(1))
	expField.And(expField, expMask)
	return sign, expField, frac
}

func (f Format) maxExpField() *big.Int {
	m := new(big.Int).Lsh(big.NewInt(1), uint(f.EB))
	return m.Sub(m, big.NewInt(1))
}

// IsNaN reports whether the value is a NaN.
func (v Value) IsNaN() bool {
	if v.fmt.wordSized() {
		return v.pattern()&^v.fmt.signBit() > v.fmt.infMag()
	}
	_, e, m := v.components()
	return e.Cmp(v.fmt.maxExpField()) == 0 && m.Sign() != 0
}

// IsInf reports whether the value is an infinity; sign < 0 checks for -oo,
// sign > 0 for +oo, sign == 0 for either.
func (v Value) IsInf(sign int) bool {
	if f := v.fmt; f.wordSized() {
		w := v.pattern()
		return w&^f.signBit() == f.infMag() && (sign == 0 || (sign < 0) == (w&f.signBit() != 0))
	}
	s, e, m := v.components()
	if e.Cmp(v.fmt.maxExpField()) != 0 || m.Sign() != 0 {
		return false
	}
	switch {
	case sign < 0:
		return s == 1
	case sign > 0:
		return s == 0
	default:
		return true
	}
}

// IsZero reports whether the value is +0 or -0.
func (v Value) IsZero() bool {
	if v.fmt.wordSized() {
		return v.pattern()&^v.fmt.signBit() == 0
	}
	_, e, m := v.components()
	return e.Sign() == 0 && m.Sign() == 0
}

// IsFinite reports whether the value is neither NaN nor infinite.
func (v Value) IsFinite() bool {
	if v.fmt.wordSized() {
		return v.pattern()&^v.fmt.signBit() < v.fmt.infMag()
	}
	_, e, _ := v.components()
	return e.Cmp(v.fmt.maxExpField()) != 0
}

// Signbit reports whether the sign bit is set.
func (v Value) Signbit() bool {
	if v.fmt.wordSized() {
		return v.pattern()&v.fmt.signBit() != 0
	}
	s, _, _ := v.components()
	return s == 1
}

// Rat returns the exact rational value. ok is false for NaN and infinities.
// Both zeros return an exact zero.
func (v Value) Rat() (r *big.Rat, ok bool) {
	if v.fmt.wordSized() {
		return v.fmt.ratWord(v.pattern())
	}
	return v.ratBig()
}

// ratBig is Rat on math/big: the path for wider formats and the word
// path's reference.
func (v Value) ratBig() (*big.Rat, bool) {
	s, e, m := v.components()
	f := v.fmt
	if e.Cmp(f.maxExpField()) == 0 {
		return nil, false
	}
	var mag *big.Rat
	if e.Sign() == 0 {
		// Subnormal: m * 2^(EMin - SB + 1)
		mag = ratShift(new(big.Rat).SetInt(m), f.EMin()-f.SB+1)
	} else {
		// Normal: (2^(SB-1) + m) * 2^(e - bias - SB + 1)
		sig := new(big.Int).Lsh(big.NewInt(1), uint(f.SB-1))
		sig.Add(sig, m)
		exp := int(e.Int64()) - f.Bias() - f.SB + 1
		mag = ratShift(new(big.Rat).SetInt(sig), exp)
	}
	if s == 1 {
		mag.Neg(mag)
	}
	return mag, true
}

// Special constant constructors.

// Zero returns +0 or -0 of the format.
func (f Format) Zero(negative bool) Value {
	b := new(big.Int)
	if negative {
		b.SetBit(b, f.TotalBits()-1, 1)
	}
	return Value{fmt: f, bits: b}
}

// Inf returns +oo or -oo of the format.
func (f Format) Inf(negative bool) Value {
	b := new(big.Int).Set(f.maxExpField())
	b.Lsh(b, uint(f.SB-1))
	if negative {
		b.SetBit(b, f.TotalBits()-1, 1)
	}
	return Value{fmt: f, bits: b}
}

// NaN returns the canonical quiet NaN of the format.
func (f Format) NaN() Value {
	b := new(big.Int).Set(f.maxExpField())
	b.Lsh(b, uint(f.SB-1))
	b.SetBit(b, f.SB-2, 1)
	return Value{fmt: f, bits: b}
}

// ratShift returns r * 2^k exactly.
func ratShift(r *big.Rat, k int) *big.Rat {
	if k >= 0 {
		scale := new(big.Int).Lsh(big.NewInt(1), uint(k))
		return r.Mul(r, new(big.Rat).SetInt(scale))
	}
	scale := new(big.Int).Lsh(big.NewInt(1), uint(-k))
	return r.Quo(r, new(big.Rat).SetInt(scale))
}

// FromRat rounds the exact rational r into the format using RNE and
// reports whether the result represents r exactly. Overflow produces an
// infinity (exact=false); values rounding to zero produce +0 unless r is
// exactly zero and negZero is requested via FromRatSigned.
func FromRat(f Format, r *big.Rat) (v Value, exact bool) {
	return fromRatSign(f, r, false)
}

// fromRatSign rounds |r| and applies the sign; zeroNeg selects -0 when the
// magnitude rounds to zero.
func fromRatSign(f Format, r *big.Rat, zeroNeg bool) (Value, bool) {
	if r.Sign() == 0 {
		return f.Zero(zeroNeg), true
	}
	neg := r.Sign() < 0
	mag := new(big.Rat).Abs(r)

	// Determine the binary exponent e with 2^e <= mag < 2^(e+1).
	e := floorLog2(mag)

	var sig *big.Int // integer significand after scaling
	var exp int      // exponent such that value = sig * 2^(exp - SB + 1)
	if e < f.EMin() {
		// Subnormal candidate: quantum 2^(EMin-SB+1).
		sig = roundRatRNE(ratShift(new(big.Rat).Set(mag), -(f.EMin() - f.SB + 1)))
		exp = f.EMin()
	} else {
		sig = roundRatRNE(ratShift(new(big.Rat).Set(mag), -(e - f.SB + 1)))
		exp = e
		// Rounding may have carried into the next binade.
		limit := new(big.Int).Lsh(big.NewInt(1), uint(f.SB))
		if sig.Cmp(limit) == 0 {
			sig.Rsh(sig, 1)
			exp++
		}
	}
	if exp > f.EMax() {
		return f.Inf(neg), false
	}
	if sig.Sign() == 0 {
		// Underflowed to zero.
		return f.Zero(neg), mag.Sign() == 0
	}

	var bits *big.Int
	minNormalSig := new(big.Int).Lsh(big.NewInt(1), uint(f.SB-1))
	if sig.Cmp(minNormalSig) < 0 {
		// Subnormal encoding: exponent field 0.
		bits = new(big.Int).Set(sig)
	} else {
		// Normalize in case the subnormal path rounded up to a normal.
		for sig.Cmp(new(big.Int).Lsh(minNormalSig, 1)) >= 0 {
			sig.Rsh(sig, 1)
			exp++
		}
		if exp > f.EMax() {
			return f.Inf(neg), false
		}
		frac := new(big.Int).Sub(sig, minNormalSig)
		expField := big.NewInt(int64(exp + f.Bias()))
		bits = new(big.Int).Lsh(expField, uint(f.SB-1))
		bits.Or(bits, frac)
	}
	if neg {
		bits.SetBit(bits, f.TotalBits()-1, 1)
	}
	v := Value{fmt: f, bits: bits}
	got, _ := v.Rat()
	return v, got.Cmp(r) == 0
}

// floorLog2 returns floor(log2(r)) for positive r.
func floorLog2(r *big.Rat) int {
	num, den := r.Num(), r.Denom()
	e := num.BitLen() - den.BitLen()
	// 2^e <= num/den < 2^(e+2); adjust down if needed.
	cmp := new(big.Int).Lsh(den, uint(0))
	_ = cmp
	// Compare num with den << e (for e >= 0) or num << -e with den.
	if e >= 0 {
		shifted := new(big.Int).Lsh(den, uint(e))
		if num.Cmp(shifted) < 0 {
			e--
		}
	} else {
		shifted := new(big.Int).Lsh(num, uint(-e))
		if shifted.Cmp(den) < 0 {
			e--
		}
	}
	return e
}

// roundRatRNE rounds a non-negative rational to the nearest integer,
// breaking ties to even.
func roundRatRNE(r *big.Rat) *big.Int {
	num, den := r.Num(), r.Denom()
	q, rem := new(big.Int).QuoRem(num, den, new(big.Int))
	twice := new(big.Int).Lsh(rem, 1)
	switch twice.Cmp(den) {
	case 1:
		q.Add(q, big.NewInt(1))
	case 0:
		if q.Bit(0) == 1 {
			q.Add(q, big.NewInt(1))
		}
	}
	return q
}

func (v Value) String() string {
	if v.IsNaN() {
		return "NaN"
	}
	if v.IsInf(1) {
		return "+oo"
	}
	if v.IsInf(-1) {
		return "-oo"
	}
	r, _ := v.Rat()
	if v.IsZero() && v.Signbit() {
		return "-0"
	}
	return r.RatString()
}
