package fp

import (
	"math/big"
	"math/rand"
	"testing"
)

// classBig classifies v from its big.Int fields, as the math/big path
// does: NaN, infinity, zero and sign.
func classBig(v Value) (nan, inf, zero, neg bool) {
	s, e, m := v.components()
	top := e.Cmp(v.fmt.maxExpField()) == 0
	return top && m.Sign() != 0, top && m.Sign() == 0, e.Sign() == 0 && m.Sign() == 0, s == 1
}

// flipSignBig negates v on math/big; clear keeps the sign bit clear
// instead (Abs).
func flipSignBig(v Value, clear bool) Value {
	b, pos := v.Bits(), v.fmt.TotalBits()-1
	b.SetBit(b, pos, 1-b.Bit(pos))
	if clear {
		b.SetBit(b, pos, 0)
	}
	return Value{fmt: v.fmt, bits: b}
}

// checkValue compares every unary operation on v with the math/big path.
func checkValue(t *testing.T, v Value) {
	t.Helper()
	nan, inf, zero, neg := classBig(v)
	if v.IsNaN() != nan || v.IsInf(0) != inf || v.IsInf(1) != (inf && !neg) || v.IsInf(-1) != (inf && neg) ||
		v.IsZero() != zero || v.IsFinite() != (!nan && !inf) || v.Signbit() != neg {
		t.Fatalf("%v %#x: classification differs from math/big", v.fmt, v.bits)
	}
	got, gotOK := v.Rat()
	want, wantOK := v.ratBig()
	if gotOK != wantOK || gotOK && got.Cmp(want) != 0 {
		t.Fatalf("%v %#x: Rat = %v, %t; math/big gives %v, %t", v.fmt, v.bits, got, gotOK, want, wantOK)
	}
	sameBits(t, "neg", v, v, Neg(v), flipSignBig(v, false))
	sameBits(t, "abs", v, v, Abs(v), flipSignBig(v, true))
}

// checkPair compares every binary operation on a and b with the
// math/big path.
func checkPair(t *testing.T, a, b Value) {
	t.Helper()
	sameBits(t, "+", a, b, Add(a, b), addBig(a, b))
	sameBits(t, "-", a, b, Sub(a, b), addBig(a, flipSignBig(b, false)))
	sameBits(t, "*", a, b, Mul(a, b), mulBig(a, b))
	sameBits(t, "/", a, b, Div(a, b), divBig(a, b))
	c, ok := cmpBig(a, b)
	for _, p := range []struct {
		name string
		got  bool
		want bool
	}{
		{"eq", Eq(a, b), ok && c == 0},
		{"lt", Lt(a, b), ok && c < 0},
		{"le", Le(a, b), ok && c <= 0},
		{"gt", Gt(a, b), ok && c > 0},
		{"ge", Ge(a, b), ok && c >= 0},
	} {
		if p.got != p.want {
			t.Fatalf("%v: %s(%#x, %#x) = %t, math/big gives %t", a.fmt, p.name, a.bits, b.bits, p.got, p.want)
		}
	}
}

func sameBits(t *testing.T, op string, a, b, got, want Value) {
	t.Helper()
	if got.fmt != want.fmt || got.bits.Cmp(want.bits) != 0 {
		t.Fatalf("%v: %#x %s %#x = %#x (%v), math/big gives %#x (%v)",
			a.fmt, a.bits, op, b.bits, got.bits, got, want.bits, want)
	}
}

// exact returns the value of f equal to r, failing if r is not
// representable.
func exact(t *testing.T, f Format, r *big.Rat) Value {
	t.Helper()
	v, ok := FromRat(f, r)
	if !ok {
		t.Fatalf("%v: %v is not representable", f, r)
	}
	return v
}

// pow2 returns 2^k.
func pow2(k int) *big.Rat { return ratShift(big.NewRat(1, 1), k) }

// TestWordMatchesReference pins the word kernel to the math/big path:
// a table of corner cases, each checked against its IEEE-754 result
// and the math/big path, and a seeded sweep over formats from (2,2) to
// (15,49), including Float16/32/64 and SB = 60, comparing every exported
// operation bit for bit.
func TestWordMatchesReference(t *testing.T) {
	for _, f := range []Format{{3, 3}, {4, 5}, Float16, Float32, {8, 41}, Float64, {15, 49}, {3, 60}} {
		wordCorners(t, f)
	}
	pairs := 2000
	if testing.Short() {
		pairs = 400
	}
	formats := []Format{
		{2, 2}, {2, 3}, {3, 2}, {3, 3}, {3, 5}, {4, 5}, {4, 8}, Float16, {5, 13}, {6, 12}, {6, 22},
		{7, 32}, Float32, {8, 41}, {10, 30}, Float64, {12, 40}, {15, 49}, {2, 60}, {3, 60}, {4, 60},
	}
	for i, f := range formats {
		if !f.wordSized() {
			t.Fatalf("%v is not word-sized", f)
		}
		rng := rand.New(rand.NewSource(int64(i + 1)))
		for n := 0; n < pairs; n++ {
			a := f.fromPattern(randPattern(rng, f))
			b := f.fromPattern(randPattern(rng, f))
			if rng.Intn(3) == 0 {
				b = near(rng, f, a)
			}
			checkValue(t, a)
			checkPair(t, a, b)
			checkFromBits(t, rng, f, a)
		}
	}
}

// wordCorners checks the corner cases of f: RNE ties, the
// subnormal/normal boundary, carry into the next binade, overflow to
// ±∞, exact cancellation, signed zeros, ∞ − ∞, 0/0 and x/0.
func wordCorners(t *testing.T, f Format) {
	t.Helper()
	q := func(r *big.Rat) Value { return exact(t, f, r) }
	neg := func(v Value) Value { return flipSignBig(v, false) }
	ulpExp := 1 - f.SB // ulp of 1 is 2^ulpExp
	one, two, half := q(big.NewRat(1, 1)), q(big.NewRat(2, 1)), q(big.NewRat(1, 2))
	tie := q(pow2(ulpExp - 1)) // half an ulp of 1
	onePlusUlp := q(new(big.Rat).Add(big.NewRat(1, 1), pow2(ulpExp)))
	onePlus2Ulp := q(new(big.Rat).Add(big.NewRat(1, 1), pow2(ulpExp+1)))
	twoMinusUlp := q(new(big.Rat).Sub(big.NewRat(2, 1), pow2(ulpExp)))
	minSub := q(pow2(f.EMin() + ulpExp))
	minNorm := q(pow2(f.EMin()))
	maxSub := q(new(big.Rat).Sub(pow2(f.EMin()), pow2(f.EMin()+ulpExp)))
	maxFin := q(f.MaxFinite())
	halfUlpMax := q(pow2(f.EMax() + ulpExp - 1))
	third, _ := FromRat(f, big.NewRat(1, 3))
	pz, nz := f.Zero(false), f.Zero(true)
	pinf, ninf, nan := f.Inf(false), f.Inf(true), f.NaN()
	negNaN := neg(FromBits(f, new(big.Int).Add(nan.bits, big.NewInt(1))))

	type arithCase struct {
		name string
		op   func(a, b Value) Value
		a, b Value
		want Value
	}
	arith := []arithCase{
		{"tie to even rounds down", Add, one, tie, one},
		{"tie to even rounds up", Add, onePlusUlp, tie, onePlus2Ulp},
		{"tie below one", Sub, one, q(pow2(ulpExp - 2)), one},
		{"carry into the next binade", Add, twoMinusUlp, tie, two},
		{"subnormals sum to the smallest normal", Add, maxSub, minSub, minNorm},
		{"smallest normal less a subnormal", Sub, minNorm, minSub, maxSub},
		{"smallest subnormal halved ties to +0", Mul, minSub, half, pz},
		{"negative underflow keeps its sign", Mul, neg(minSub), half, nz},
		{"subnormal quotient ties to even", Div, minSub, two, pz},
		{"overflow to +oo", Add, maxFin, maxFin, pinf},
		{"overflow to -oo", Mul, neg(maxFin), two, ninf},
		{"overflow at the tie", Add, maxFin, halfUlpMax, pinf},
		{"overflow by division", Div, maxFin, half, pinf},
		{"exact cancellation is +0", Add, neg(third), third, pz},
		{"x - x is +0", Sub, third, third, pz},
		{"-0 + -0 is -0", Add, nz, nz, nz},
		{"-0 - +0 is -0", Sub, nz, pz, nz},
		{"+0 + -0 is +0", Add, pz, nz, pz},
		{"oo - oo is NaN", Sub, pinf, pinf, nan},
		{"oo + -oo is NaN", Add, pinf, ninf, nan},
		{"oo + oo", Add, pinf, pinf, pinf},
		{"0 * oo is NaN", Mul, nz, pinf, nan},
		{"0/0 is NaN", Div, pz, nz, nan},
		{"x/+0 is +oo", Div, one, pz, pinf},
		{"x/-0 is -oo", Div, one, nz, ninf},
		{"x/oo is a signed zero", Div, neg(one), pinf, nz},
		{"oo/oo is NaN", Div, ninf, pinf, nan},
		{"NaN operand gives the canonical NaN", Mul, negNaN, one, nan},
		{"1/3 * 3", Mul, third, q(big.NewRat(3, 1)), one},
	}
	// A sticky bit decides a sum that carries into the next binade: 2 -
	// ulp plus a value just above 2 ulps, whose last bit falls below the
	// kernel's 63-bit register when SB > 32, rounds up to 2 + 2 ulps.
	if b, ok := FromRat(f, new(big.Rat).Add(pow2(ulpExp+1), pow2(2*ulpExp+1))); ok {
		want := q(new(big.Rat).Add(big.NewRat(2, 1), pow2(ulpExp+1)))
		arith = append(arith, arithCase{"sticky bit above a carried tie", Add, twoMinusUlp, b, want})
	}
	for _, c := range arith {
		got := c.op(c.a, c.b)
		if got.bits.Cmp(c.want.bits) != 0 {
			t.Fatalf("%v: %s: got %v (%#x), want %v (%#x)", f, c.name, got, got.bits, c.want, c.want.bits)
		}
	}
	cmps := []struct {
		name        string
		a, b        Value
		c           int
		unorderable bool
	}{
		{"+0 == -0", pz, nz, 0, false},
		{"-oo < -max", ninf, neg(maxFin), -1, false},
		{"max < +oo", maxFin, pinf, -1, false},
		{"-min subnormal < +0", neg(minSub), pz, -1, false},
		{"1+ulp > 1", onePlusUlp, one, 1, false},
		{"NaN is unordered", nan, nan, 0, true},
		{"negative NaN is unordered", one, negNaN, 0, true},
	}
	for _, c := range cmps {
		got, ok := cmp(c.a, c.b)
		if got != c.c || ok == c.unorderable {
			t.Fatalf("%v: %s: cmp = %d, %t", f, c.name, got, ok)
		}
	}
	corners := []Value{one, two, half, tie, onePlusUlp, twoMinusUlp, minSub, minNorm, maxSub, maxFin,
		halfUlpMax, third, pz, nz, pinf, ninf, nan, negNaN}
	for _, a := range corners {
		checkValue(t, a)
		checkValue(t, neg(a))
		for _, b := range corners {
			checkPair(t, a, b)
			checkPair(t, neg(a), b)
		}
	}
}

// randPattern draws a pattern of f: uniform, near 1, near 1 with a
// sparse fraction (so results land on ties), among the smallest
// exponents, or a special value, each a fifth of the time.
func randPattern(rng *rand.Rand, f Format) uint64 {
	fb := f.SB - 1
	frac := rng.Uint64() & (1<<fb - 1)
	sign := uint64(rng.Intn(2)) << (f.TotalBits() - 1)
	top := 1<<f.EB - 1
	nearOne := uint64(min(max(f.Bias()+rng.Intn(9)-4, 0), top)) << fb
	switch rng.Intn(5) {
	case 0:
		return rng.Uint64() & (^uint64(0) >> (64 - f.TotalBits()))
	case 1:
		return sign | nearOne | frac
	case 2:
		return sign | nearOne | (1<<rng.Intn(fb+1)|1<<rng.Intn(fb+1))>>1
	case 3:
		return sign | uint64(rng.Intn(min(3, top)))<<fb | frac
	}
	specials := []uint64{0, 1, 1<<fb - 1, 1 << fb, f.infMag() - 1, f.infMag(), f.nanPattern(), uint64(f.Bias()) << fb}
	return sign | specials[rng.Intn(len(specials))]
}

// near draws a value close to a: the same or a neighbouring exponent,
// or a with some low bits flipped, so sums cancel and align closely.
func near(rng *rand.Rand, f Format, a Value) Value {
	w := a.pattern()
	if rng.Intn(2) == 0 {
		return f.fromPattern(w ^ rng.Uint64()&(1<<rng.Intn(f.SB)-1) ^ uint64(rng.Intn(2))<<(f.TotalBits()-1))
	}
	fb := f.SB - 1
	e := int(w&^f.signBit()>>fb) + rng.Intn(5) - 2
	e = min(max(e, 0), 1<<f.EB-1)
	return f.fromPattern(w&f.signBit() ^ uint64(rng.Intn(2))<<(f.TotalBits()-1) | uint64(e)<<fb | rng.Uint64()&(1<<fb-1))
}

// checkFromBits compares FromBits with the math/big path on a's pattern
// with random bits set beyond the format's width, and on its negation.
func checkFromBits(t *testing.T, rng *rand.Rand, f Format, a Value) {
	t.Helper()
	wide := new(big.Int).Lsh(big.NewInt(rng.Int63()), uint(f.TotalBits()))
	wide.Or(wide, a.bits)
	for _, in := range []*big.Int{a.bits, wide, new(big.Int).Neg(wide)} {
		sameBits(t, "FromBits", a, a, FromBits(f, in), fromBitsBig(f, in))
	}
}

// FuzzWordArith compares the word kernel with the math/big path on two
// patterns of a fuzzed word-sized format. EB stays in [2, 15]: the
// math/big path's cost grows with 2^EB.
func FuzzWordArith(f *testing.F) {
	f.Add(uint8(8), uint8(24), uint64(0x3f800000), uint64(0x33800000))      // 1 + 2^-24: a tie
	f.Add(uint8(5), uint8(11), uint64(0x7bff), uint64(0x7bff))              // Float16 max + max
	f.Add(uint8(11), uint8(53), uint64(0x000fffffffffffff), uint64(0x0001)) // subnormal boundary
	f.Add(uint8(3), uint8(60), uint64(0x7fffffffffffffff), uint64(0x8000000000000001))
	f.Fuzz(func(t *testing.T, eb, sb uint8, a, b uint64) {
		e := 2 + int(eb)%14
		s := 2 + int(sb)%(min(60, 64-e)-1)
		fm := Format{e, s}
		mask := ^uint64(0) >> (64 - fm.TotalBits())
		va, vb := fm.fromPattern(a&mask), fm.fromPattern(b&mask)
		checkValue(t, va)
		checkValue(t, vb)
		checkPair(t, va, vb)
	})
}

// TestWideFormatArith exercises the math/big path through the exported
// API on binary128 (15,113), which is wider than a word: known IEEE-754
// results for 1/3, RNE ties, overflow and the special values.
func TestWideFormatArith(t *testing.T) {
	f := Format{15, 113}
	if f.wordSized() {
		t.Fatal("binary128 must take the math/big path")
	}
	q := func(r *big.Rat) Value { return exact(t, f, r) }
	one, three := q(big.NewRat(1, 1)), q(big.NewRat(3, 1))
	third := Div(one, three)
	if want, _ := new(big.Int).SetString("3ffd5555555555555555555555555555", 16); third.bits.Cmp(want) != 0 {
		t.Errorf("1/3 = %#x, want %#x", third.bits, want)
	}
	if got := Add(one, q(pow2(-113))); !Eq(got, one) {
		t.Errorf("1 + 2^-113 = %v, want 1 (tie to even)", got)
	}
	onePlus := func(k int) Value { return q(new(big.Rat).Add(big.NewRat(1, 1), pow2(k))) }
	if got := Add(onePlus(-112), q(pow2(-113))); got.bits.Cmp(onePlus(-111).bits) != 0 {
		t.Errorf("(1 + 2^-112) + 2^-113 = %v, want 1 + 2^-111 (tie to even)", got)
	}
	maxFin := q(f.MaxFinite())
	if got := Mul(maxFin, three); !got.IsInf(1) {
		t.Errorf("3 * max = %v, want +oo", got)
	}
	if got := Sub(third, third); !got.IsZero() || got.Signbit() {
		t.Errorf("x - x = %v, want +0", got)
	}
	if !Div(f.Zero(false), f.Zero(true)).IsNaN() || !Sub(f.Inf(false), f.Inf(false)).IsNaN() {
		t.Error("0/0 or oo - oo is not NaN")
	}
	if !Eq(f.Zero(false), f.Zero(true)) || !Lt(third, one) || Le(f.NaN(), one) || !Ge(Neg(third), Neg(one)) {
		t.Error("binary128 comparisons")
	}
	if r, _ := Mul(third, three).Rat(); r.Cmp(big.NewRat(1, 1)) != 0 {
		t.Errorf("1/3 * 3 = %v, want 1", r)
	}
	if got := FromBits(f, new(big.Int).Lsh(third.bits, 128)); !got.IsZero() {
		t.Errorf("FromBits kept bits beyond the width: %v", got)
	}
}
