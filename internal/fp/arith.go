package fp

import "math/big"

// Arithmetic operations. All use round-to-nearest-even and follow the
// IEEE-754 special-value rules. Operands must share a format. Each
// operation runs on the word kernel (word.go) when the format allows it,
// and otherwise computes exactly with big.Rat and rounds once; the
// big.Rat bodies are also the word kernel's reference.

func sameFormat(a, b Value) Format {
	if a.fmt != b.fmt {
		panic("fp: mixed formats")
	}
	return a.fmt
}

// Neg returns -v (flips the sign bit, including for NaN and zero).
func Neg(v Value) Value {
	if f := v.fmt; f.wordSized() {
		return f.fromPattern(v.pattern() ^ f.signBit())
	}
	bits := v.Bits()
	pos := v.fmt.TotalBits() - 1
	if bits.Bit(pos) == 1 {
		bits.SetBit(bits, pos, 0)
	} else {
		bits.SetBit(bits, pos, 1)
	}
	return Value{fmt: v.fmt, bits: bits}
}

// Abs returns |v| (clears the sign bit).
func Abs(v Value) Value {
	if f := v.fmt; f.wordSized() {
		return f.fromPattern(v.pattern() &^ f.signBit())
	}
	bits := v.Bits()
	bits.SetBit(bits, v.fmt.TotalBits()-1, 0)
	return Value{fmt: v.fmt, bits: bits}
}

// Add returns a + b.
func Add(a, b Value) Value {
	if f := sameFormat(a, b); f.wordSized() {
		return f.fromPattern(f.addWord(a.pattern(), b.pattern()))
	}
	return addBig(a, b)
}

func addBig(a, b Value) Value {
	f := sameFormat(a, b)
	if a.IsNaN() || b.IsNaN() {
		return f.NaN()
	}
	switch {
	case a.IsInf(0) && b.IsInf(0):
		if a.Signbit() == b.Signbit() {
			return a
		}
		return f.NaN()
	case a.IsInf(0):
		return a
	case b.IsInf(0):
		return b
	}
	ra, _ := a.Rat()
	rb, _ := b.Rat()
	sum := new(big.Rat).Add(ra, rb)
	if sum.Sign() == 0 {
		// Exact zero: -0 only when both inputs are negative zeros (or
		// equal-signed negatives cancel, which cannot happen); IEEE RNE
		// gives +0 for x + (-x).
		if a.IsZero() && b.IsZero() && a.Signbit() && b.Signbit() {
			return f.Zero(true)
		}
		return f.Zero(false)
	}
	v, _ := fromRatSign(f, sum, false)
	return v
}

// Sub returns a - b.
func Sub(a, b Value) Value {
	if f := sameFormat(a, b); f.wordSized() {
		return f.fromPattern(f.addWord(a.pattern(), b.pattern()^f.signBit()))
	}
	return addBig(a, Neg(b))
}

// Mul returns a * b.
func Mul(a, b Value) Value {
	if f := sameFormat(a, b); f.wordSized() {
		return f.fromPattern(f.mulWord(a.pattern(), b.pattern()))
	}
	return mulBig(a, b)
}

func mulBig(a, b Value) Value {
	f := sameFormat(a, b)
	if a.IsNaN() || b.IsNaN() {
		return f.NaN()
	}
	neg := a.Signbit() != b.Signbit()
	if a.IsInf(0) || b.IsInf(0) {
		if a.IsZero() || b.IsZero() {
			return f.NaN()
		}
		return f.Inf(neg)
	}
	ra, _ := a.Rat()
	rb, _ := b.Rat()
	prod := new(big.Rat).Mul(ra, rb)
	if prod.Sign() == 0 {
		return f.Zero(neg)
	}
	v, _ := fromRatSign(f, prod, neg)
	return v
}

// Div returns a / b.
func Div(a, b Value) Value {
	if f := sameFormat(a, b); f.wordSized() {
		return f.fromPattern(f.divWord(a.pattern(), b.pattern()))
	}
	return divBig(a, b)
}

func divBig(a, b Value) Value {
	f := sameFormat(a, b)
	if a.IsNaN() || b.IsNaN() {
		return f.NaN()
	}
	neg := a.Signbit() != b.Signbit()
	switch {
	case a.IsInf(0) && b.IsInf(0):
		return f.NaN()
	case a.IsInf(0):
		return f.Inf(neg)
	case b.IsInf(0):
		return f.Zero(neg)
	case b.IsZero():
		if a.IsZero() {
			return f.NaN()
		}
		return f.Inf(neg)
	case a.IsZero():
		return f.Zero(neg)
	}
	ra, _ := a.Rat()
	rb, _ := b.Rat()
	quo := new(big.Rat).Quo(ra, rb)
	v, _ := fromRatSign(f, quo, neg)
	return v
}

// cmp returns -1, 0 or 1 for ordered finite/infinite operands, and ok=false
// when either operand is NaN (unordered).
func cmp(a, b Value) (int, bool) {
	if f := sameFormat(a, b); f.wordSized() {
		return f.cmpWord(a.pattern(), b.pattern())
	}
	return cmpBig(a, b)
}

func cmpBig(a, b Value) (int, bool) {
	if a.IsNaN() || b.IsNaN() {
		return 0, false
	}
	// Zeros compare equal regardless of sign.
	if a.IsZero() && b.IsZero() {
		return 0, true
	}
	aInfNeg, aInfPos := a.IsInf(-1), a.IsInf(1)
	bInfNeg, bInfPos := b.IsInf(-1), b.IsInf(1)
	switch {
	case aInfNeg && bInfNeg, aInfPos && bInfPos:
		return 0, true
	case aInfNeg, bInfPos:
		return -1, true
	case aInfPos, bInfNeg:
		return 1, true
	}
	ra, _ := a.Rat()
	rb, _ := b.Rat()
	return ra.Cmp(rb), true
}

// Eq implements fp.eq: IEEE equality (NaN != NaN, -0 == +0).
func Eq(a, b Value) bool {
	c, ok := cmp(a, b)
	return ok && c == 0
}

// Lt implements fp.lt.
func Lt(a, b Value) bool {
	c, ok := cmp(a, b)
	return ok && c < 0
}

// Le implements fp.leq.
func Le(a, b Value) bool {
	c, ok := cmp(a, b)
	return ok && c <= 0
}

// Gt implements fp.gt.
func Gt(a, b Value) bool {
	c, ok := cmp(a, b)
	return ok && c > 0
}

// Ge implements fp.geq.
func Ge(a, b Value) bool {
	c, ok := cmp(a, b)
	return ok && c >= 0
}
