package fp

import (
	"math/big"
	"math/bits"
)

// The word kernel. A format whose bit pattern fits a uint64 and whose
// significand leaves three guard bits in a 63-bit register decides every
// operation on machine words, SoftFloat style: operands unpack to a sign,
// an exponent and an integer significand, add and sub align with a
// jamming right shift (lost bits ORed into bit 0), mul and div keep the
// bits they drop as the same sticky bit, and one round-and-pack step
// rounds to nearest even, including subnormals, the carry into the next
// binade and overflow to infinity. Results are bit-identical to the
// exact big.Rat path, which wider formats use and which
// TestWordMatchesReference compares the kernel against.

// wordSized reports whether f runs on the word kernel: TotalBits ≤ 64
// and SB ≤ 60, so a significand normalized to bit 62 keeps at least
// three bits below its last retained one.
func (f Format) wordSized() bool {
	return f.EB >= 2 && f.SB >= 2 && f.TotalBits() <= 64 && f.SB <= 60
}

// pattern returns the bit pattern of a value of a word-sized format.
func (v Value) pattern() uint64 { return v.bits.Uint64() }

// fromPattern wraps a bit pattern of the word-sized format f.
func (f Format) fromPattern(w uint64) Value {
	if bits.UintSize < 64 {
		return Value{fmt: f, bits: new(big.Int).SetUint64(w)}
	}
	// One allocation holds the big.Int and its single word.
	p := new(struct {
		i big.Int
		w [1]big.Word
	})
	p.w[0] = big.Word(w)
	return Value{fmt: f, bits: p.i.SetBits(p.w[:])}
}

// signBit is the sign bit of f's patterns.
func (f Format) signBit() uint64 { return 1 << (f.TotalBits() - 1) }

// infMag is the magnitude pattern of infinity: the exponent field all
// ones and a zero fraction. Finite magnitudes lie below it, NaNs above.
func (f Format) infMag() uint64 { return (1<<f.EB - 1) << (f.SB - 1) }

// nanPattern is the canonical quiet NaN of f, the pattern of f.NaN().
func (f Format) nanPattern() uint64 { return f.infMag() | 1<<(f.SB-2) }

// unpack splits a finite nonzero magnitude into an integer significand
// and the exponent of its last bit: the value is sig·2^x.
func (f Format) unpack(mag uint64) (sig uint64, x int) {
	fb := f.SB - 1
	e := int(mag >> fb)
	sig = mag & (1<<fb - 1)
	if e == 0 {
		return sig, f.EMin() - fb
	}
	return sig | 1<<fb, e - f.Bias() - fb
}

// normalize shifts sig left until its leading one is bit 62.
func normalize(sig uint64, x int) (uint64, int) {
	s := 63 - bits.Len64(sig)
	return sig << s, x - s
}

// shiftRightJam shifts the nonzero sig right by d bits and ORs any bit
// shifted out into bit 0.
func shiftRightJam(sig uint64, d int) uint64 {
	if d >= 63 {
		return 1
	}
	out := sig >> d
	if sig&(1<<d-1) != 0 {
		out |= 1
	}
	return out
}

// roundPack rounds sig·2^x to f with RNE and returns the magnitude
// pattern; overflow gives infinity. sig is nonzero and below 2^63, and
// when bit 0 holds dropped bits, sig has its leading one at bit 62, so
// the rounding drops at least three bits and the sticky bit is never
// the round bit.
func (f Format) roundPack(sig uint64, x int) uint64 {
	sig, x = normalize(sig, x)
	exp := x + 62 + f.Bias() // biased exponent of the leading bit
	if exp >= 1<<f.EB-1 {
		return f.infMag()
	}
	shift := 63 - f.SB
	if exp < 1 {
		// Subnormal: the quantum stays at EMin's.
		shift += 1 - exp
		exp = 1
	}
	var q uint64
	if shift < 64 {
		q = sig >> shift
		rem, half := sig&(1<<shift-1), uint64(1)<<(shift-1)
		if rem > half || rem == half && q&1 == 1 {
			q++
		}
	}
	// A normal q has the hidden bit set, so adding it to the exponent
	// field one below carries correctly: a rounded-up 2^SB moves into
	// the next binade (or to infinity), and a subnormal rounded up to
	// 2^(SB-1) becomes the smallest normal.
	return uint64(exp-1)<<(f.SB-1) + q
}

// addWord returns the pattern of a + b.
func (f Format) addWord(a, b uint64) uint64 {
	sign, inf := f.signBit(), f.infMag()
	am, bm := a&^sign, b&^sign
	switch {
	case am > inf || bm > inf:
		return f.nanPattern()
	case am == inf && bm == inf:
		if a != b {
			return f.nanPattern()
		}
		return a
	case am == inf:
		return a
	case bm == inf:
		return b
	case am == 0 && bm == 0:
		return a & b // -0 only when both are -0
	case am == 0:
		return b
	case bm == 0:
		return a
	}
	sa, xa := normalize(f.unpack(am))
	sb, xb := normalize(f.unpack(bm))
	if xa < xb || xa == xb && sa < sb {
		a, sa, xa, b, sb, xb = b, sb, xb, a, sa, xa
	}
	// |a| ≥ |b|. sa keeps at least three zero bits at the bottom, so
	// the sticky bit jammed into sb carries into nothing.
	sb = shiftRightJam(sb, xa-xb)
	var sig uint64
	if (a^b)&sign == 0 {
		sig = sa + sb
		if sig >= 1<<63 {
			sig = sig>>1 | sig&1
			xa++
		}
	} else {
		sig = sa - sb
		if sig == 0 {
			return 0 // exact cancellation is +0
		}
	}
	return f.roundPack(sig, xa) | a&sign
}

// mulWord returns the pattern of a * b.
func (f Format) mulWord(a, b uint64) uint64 {
	sign, inf := f.signBit(), f.infMag()
	am, bm := a&^sign, b&^sign
	neg := (a ^ b) & sign
	switch {
	case am > inf || bm > inf:
		return f.nanPattern()
	case am == inf || bm == inf:
		if am == 0 || bm == 0 {
			return f.nanPattern()
		}
		return inf | neg
	case am == 0 || bm == 0:
		return neg
	}
	sa, xa := f.unpack(am)
	sb, xb := f.unpack(bm)
	hi, lo := bits.Mul64(sa, sb) // below 2^120
	sig, x := lo, xa+xb
	if hi != 0 || lo >= 1<<63 {
		// Keep the top 63 bits of the product.
		s := bits.Len64(hi) + 1
		sig = hi<<(64-s) | lo>>s
		if lo<<(64-s) != 0 {
			sig |= 1
		}
		x += s
	}
	return f.roundPack(sig, x) | neg
}

// divWord returns the pattern of a / b.
func (f Format) divWord(a, b uint64) uint64 {
	sign, inf := f.signBit(), f.infMag()
	am, bm := a&^sign, b&^sign
	neg := (a ^ b) & sign
	switch {
	case am > inf || bm > inf, am == inf && bm == inf:
		return f.nanPattern()
	case am == inf:
		return inf | neg
	case bm == inf:
		return neg
	case bm == 0:
		if am == 0 {
			return f.nanPattern()
		}
		return inf | neg
	case am == 0:
		return neg
	}
	sa, xa := normalize(f.unpack(am))
	sb, xb := normalize(f.unpack(bm))
	// sa·2^63 / sb lies in (2^62, 2^64); the remainder is the sticky bit.
	q, r := bits.Div64(sa>>1, sa<<63, sb)
	x := xa - xb - 63
	if q >= 1<<63 {
		q = q>>1 | q&1
		x++
	}
	if r != 0 {
		q |= 1
	}
	return f.roundPack(q, x) | neg
}

// cmpWord orders two patterns: -1, 0 or 1, and ok=false when either is
// a NaN. Sign-magnitude patterns order like their values once a set
// sign bit negates the magnitude, and both zeros map to 0.
func (f Format) cmpWord(a, b uint64) (int, bool) {
	sign, inf := f.signBit(), f.infMag()
	if a&^sign > inf || b&^sign > inf {
		return 0, false
	}
	key := func(w uint64) int64 {
		if w&sign != 0 {
			return -int64(w &^ sign)
		}
		return int64(w)
	}
	switch ka, kb := key(a), key(b); {
	case ka < kb:
		return -1, true
	case ka > kb:
		return 1, true
	}
	return 0, true
}

// ratWord returns the exact rational value of a finite pattern.
func (f Format) ratWord(w uint64) (*big.Rat, bool) {
	mag := w &^ f.signBit()
	if mag >= f.infMag() {
		return nil, false
	}
	if mag == 0 {
		return new(big.Rat), true
	}
	sig, x := f.unpack(mag)
	tz := bits.TrailingZeros64(sig)
	sig, x = sig>>tz, x+tz
	r := new(big.Rat).SetUint64(sig)
	if x > 0 {
		r.Num().Lsh(r.Num(), uint(x))
	} else if x < 0 {
		// sig is odd, so sig/2^-x is already in lowest terms and the
		// denominator can be set in place without a gcd.
		r.Denom().Lsh(r.Denom(), uint(-x))
	}
	if w&f.signBit() != 0 {
		r.Neg(r)
	}
	return r, true
}
