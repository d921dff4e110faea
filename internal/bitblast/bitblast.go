// Package bitblast lowers QF_BV constraints, and the QF_FP fragment STAUB's
// real-to-FP translation emits, to CNF by Tseitin transformation and
// decides them with package sat — the standard production pipeline for
// bounded logics and the reason bounded constraints are cheap to solve,
// which STAUB's theory arbitrage exploits.
//
// Every bitvector or floating-point term becomes a vector of literals (a
// float is its bit pattern; fp.go builds the round-to-nearest-even
// circuits); every boolean term a single literal. Gates perform constant
// folding against the two constant literals, so constraints with
// literal-heavy structure shrink during construction, and every gate that
// survives folding is structurally hashed: an AND, XOR or multiplexer over
// the same operand literals is encoded once. One-shot encodings and
// incremental Session rounds build gates through that one path; a Session
// only keeps its cache across rounds. Products, signed or unsigned, come
// from one w-row array multiplier (Baugh–Wooley for signed operands). The
// bvsmulo guard is Boolector's and Bitwuzla's smulo encoding: a (w+1)-bit
// product, whose low w bits are the gates of the bvmul it protects, plus a
// leading-bit test linear in w.
package bitblast

import (
	"errors"
	"fmt"
	"math/big"

	"staub/internal/bv"
	"staub/internal/eval"
	"staub/internal/fp"
	"staub/internal/sat"
	"staub/internal/smt"
)

// Blaster holds the encoding state for one constraint.
type Blaster struct {
	s     *sat.Solver
	c     *smt.Constraint
	bits  map[*smt.Term][]sat.Lit
	bools map[*smt.Term]sat.Lit
	tLit  sat.Lit // literal fixed true
	// gates is the structural gate cache every and2, xor2 and mux goes
	// through. A one-shot blaster owns its cache; a session round uses the
	// session's, so later rounds reuse the gates earlier rounds built.
	gates *gateCache
	// sess, when non-nil, makes this blaster one round of an incremental
	// Session: constraint variables resolve to the session's persistent
	// bit vectors and assertion clauses are guarded by the round's
	// activation literal.
	sess *Session
}

// gateCache maps each gate encoded so far to its output literal. Every
// lookup that misses adds an entry, so the misses are len(m).
type gateCache struct {
	m    map[gateKey]sat.Lit
	hits int64
}

func newGateCache() *gateCache { return &gateCache{m: map[gateKey]sat.Lit{}} }

// gateOp tags entries of the structural gate cache.
type gateOp uint8

const (
	gateAnd gateOp = iota
	gateXor
	gateMux
)

// gateKey identifies a gate by kind and operand literals. Binary gates
// canonicalize their commutative operands and leave c at -1 (an invalid
// literal, so it cannot collide with a mux selector).
type gateKey struct {
	op      gateOp
	a, b, c sat.Lit
}

// New creates a blaster that encodes into the given solver.
func New(s *sat.Solver) *Blaster {
	b := &Blaster{
		s:     s,
		bits:  map[*smt.Term][]sat.Lit{},
		bools: map[*smt.Term]sat.Lit{},
		gates: newGateCache(),
	}
	t := s.NewVar()
	b.tLit = sat.PosLit(t)
	s.AddClause(b.tLit)
	return b
}

func (b *Blaster) fLit() sat.Lit { return b.tLit.Not() }

// ErrInterrupted reports a one-shot Encode stopped by the solver's
// interrupt (see sat.Solver.Interrupted) between top-level assertions. The
// partial encoding is not equisatisfiable with the constraint; callers
// discard the solver and answer unknown.
var ErrInterrupted = errors.New("bitblast: encoding interrupted")

// Encode adds the CNF encoding of every assertion in c to the solver. In
// session mode, constraint variables resolve to the session's persistent
// per-name bit vectors (extended with fresh high bits when the width
// grew) and every assertion clause carries the round's activation guard.
//
// A one-shot Encode polls the solver's interrupt before each top-level
// assertion and returns ErrInterrupted when it is raised. Session rounds
// never stop part-way: a half-encoded round would leave guarded clauses
// and memoized gates the next round builds on.
func (b *Blaster) Encode(c *smt.Constraint) error {
	b.c = c
	for _, v := range c.Vars {
		switch v.Sort.Kind {
		case smt.KindBool:
			b.bools[v] = b.varBool(v)
		case smt.KindBitVec:
			b.bits[v] = b.varVec(v)
		case smt.KindFloat:
			if b.sess != nil {
				return fmt.Errorf("bitblast: sessions do not encode floating-point variable %q", v.Name)
			}
			b.bits[v] = b.freshVec(v.Sort.TotalBits())
		default:
			return fmt.Errorf("bitblast: unsupported variable sort %v", v.Sort)
		}
	}
	for _, a := range c.Assertions {
		if b.sess == nil && b.s.Interrupted() {
			return ErrInterrupted
		}
		l, err := b.boolTerm(a)
		if err != nil {
			return err
		}
		b.assert(l)
	}
	return nil
}

// varBool returns the literal for a boolean constraint variable, reusing
// the session's persistent literal for the name when in session mode.
func (b *Blaster) varBool(v *smt.Term) sat.Lit {
	if b.sess == nil {
		return b.fresh()
	}
	if l, ok := b.sess.varBools[v.Name]; ok {
		b.sess.stats.VarsReused++
		return l
	}
	l := b.fresh()
	b.sess.varBools[v.Name] = l
	return l
}

// varVec returns the bit vector for a bitvector constraint variable. In
// session mode the low bits are the persistent literals earlier rounds
// used for the same name; only bits beyond the previously encoded width
// are freshly allocated.
func (b *Blaster) varVec(v *smt.Term) []sat.Lit {
	w := v.Sort.Width
	if b.sess == nil {
		return b.freshVec(w)
	}
	vec := b.sess.varBits[v.Name]
	if n := min(len(vec), w); n > 0 {
		b.sess.stats.VarsReused += int64(n)
	}
	for len(vec) < w {
		vec = append(vec, b.fresh())
	}
	b.sess.varBits[v.Name] = vec
	return vec[:w:w]
}

// assert adds a top-level assertion clause. Assertion clauses encode the
// current round's bounded semantics, which a wider later round relaxes,
// so in session mode they carry the activation guard and die with it.
func (b *Blaster) assert(l sat.Lit) {
	if b.sess != nil {
		b.s.AddClause(b.sess.act.Not(), l)
		return
	}
	b.s.AddClause(l)
}

// Solve is a convenience: build a solver, encode, solve, and extract a
// model on sat. An interrupt raised during encoding or preprocessing
// yields Unknown with a nil error, the same answer an interrupted search
// gives, so a cancelled solve is never mistaken for an encoding failure.
func Solve(c *smt.Constraint, configure func(*sat.Solver)) (sat.Status, eval.Assignment, error) {
	s := sat.New()
	if configure != nil {
		configure(s)
	}
	bl := New(s)
	if err := bl.Encode(c); err != nil {
		if errors.Is(err, ErrInterrupted) {
			return sat.Unknown, nil, nil
		}
		return sat.Unknown, nil, err
	}
	// Subsumption and self-subsuming resolution preserve equivalence and
	// shrink the clause database; every session round runs the same pass.
	s.Preprocess()
	if s.Interrupted() {
		return sat.Unknown, nil, nil
	}
	st := s.Solve()
	if st != sat.Sat {
		return st, nil, nil
	}
	return st, bl.Model(), nil
}

// Model extracts the assignment of the encoded constraint's variables
// after a Sat result.
func (b *Blaster) Model() eval.Assignment {
	return b.ModelWith(b.s.Value)
}

// ModelWith extracts the assignment reading variable values through val
// instead of the blaster's own solver. The cube tier solves on replicas
// of the encoding solver (sat.Solver.Clone shares the variable
// numbering), so the winning replica's Value method decodes against this
// blaster's literal maps directly.
func (b *Blaster) ModelWith(val func(v int) bool) eval.Assignment {
	m := make(eval.Assignment, len(b.c.Vars))
	for _, v := range b.c.Vars {
		switch v.Sort.Kind {
		case smt.KindBool:
			m[v.Name] = eval.BoolValue(b.litValWith(b.bools[v], val))
		case smt.KindBitVec, smt.KindFloat:
			bitsVal := new(big.Int)
			for i, l := range b.bits[v] {
				if b.litValWith(l, val) {
					bitsVal.SetBit(bitsVal, i, 1)
				}
			}
			if v.Sort.Kind == smt.KindFloat {
				m[v.Name] = eval.FPValue(fp.FromBits(smt.FPFormat(v.Sort), bitsVal))
			} else {
				m[v.Name] = eval.BVValue(bv.New(v.Sort.Width, bitsVal))
			}
		}
	}
	return m
}

func (b *Blaster) litVal(l sat.Lit) bool {
	return b.litValWith(l, b.s.Value)
}

func (b *Blaster) litValWith(l sat.Lit, val func(v int) bool) bool {
	if l == b.tLit {
		return true
	}
	if l == b.fLit() {
		return false
	}
	return val(l.Var()) != l.Sign()
}

func (b *Blaster) fresh() sat.Lit { return sat.PosLit(b.s.NewVar()) }

func (b *Blaster) freshVec(w int) []sat.Lit {
	vec := make([]sat.Lit, w)
	for i := range vec {
		vec[i] = b.fresh()
	}
	return vec
}

// Gate construction with constant folding.

func (b *Blaster) isT(l sat.Lit) bool { return l == b.tLit }
func (b *Blaster) isF(l sat.Lit) bool { return l == b.fLit() }

func (b *Blaster) and2(x, y sat.Lit) sat.Lit {
	switch {
	case b.isF(x) || b.isF(y):
		return b.fLit()
	case b.isT(x):
		return y
	case b.isT(y):
		return x
	case x == y:
		return x
	case x == y.Not():
		return b.fLit()
	}
	if x > y {
		x, y = y, x
	}
	return b.gate(gateKey{gateAnd, x, y, -1})
}

func (b *Blaster) or2(x, y sat.Lit) sat.Lit {
	return b.and2(x.Not(), y.Not()).Not()
}

func (b *Blaster) xor2(x, y sat.Lit) sat.Lit {
	switch {
	case b.isF(x):
		return y
	case b.isF(y):
		return x
	case b.isT(x):
		return y.Not()
	case b.isT(y):
		return x.Not()
	case x == y:
		return b.fLit()
	case x == y.Not():
		return b.tLit
	}
	if x > y {
		x, y = y, x
	}
	return b.gate(gateKey{gateXor, x, y, -1})
}

func (b *Blaster) eq2(x, y sat.Lit) sat.Lit { return b.xor2(x, y).Not() }

// mux returns s ? x : y.
func (b *Blaster) mux(s, x, y sat.Lit) sat.Lit {
	switch {
	case b.isT(s):
		return x
	case b.isF(s):
		return y
	case x == y:
		return x
	}
	return b.gate(gateKey{gateMux, s, x, y})
}

// gate returns the output literal of k: the cached one when an earlier
// encoding (or session round) built the same gate, otherwise a fresh
// literal with its Tseitin definition. The definition clauses constrain
// only the fresh output in terms of the operands, so they are sound in
// every round of a session and are never guarded.
func (b *Blaster) gate(k gateKey) sat.Lit {
	if o, ok := b.gates.m[k]; ok {
		b.gates.hits++
		return o
	}
	o := b.fresh()
	x, y, z := k.a, k.b, k.c
	switch k.op {
	case gateAnd:
		b.s.AddClause(o.Not(), x)
		b.s.AddClause(o.Not(), y)
		b.s.AddClause(o, x.Not(), y.Not())
	case gateXor:
		b.s.AddClause(o.Not(), x, y)
		b.s.AddClause(o.Not(), x.Not(), y.Not())
		b.s.AddClause(o, x, y.Not())
		b.s.AddClause(o, x.Not(), y)
	case gateMux: // o = x ? y : z
		b.s.AddClause(x.Not(), y.Not(), o)
		b.s.AddClause(x.Not(), y, o.Not())
		b.s.AddClause(x, z.Not(), o)
		b.s.AddClause(x, z, o.Not())
	}
	b.gates.m[k] = o
	return o
}

func (b *Blaster) bigAnd(ls []sat.Lit) sat.Lit {
	out := b.tLit
	for _, l := range ls {
		out = b.and2(out, l)
	}
	return out
}

func (b *Blaster) bigOr(ls []sat.Lit) sat.Lit {
	out := b.fLit()
	for _, l := range ls {
		out = b.or2(out, l)
	}
	return out
}

// fullAdder returns (sum, carry) of x + y + cin.
func (b *Blaster) fullAdder(x, y, cin sat.Lit) (sum, cout sat.Lit) {
	p := b.xor2(x, y)
	sum = b.xor2(p, cin)
	cout = b.or2(b.and2(x, y), b.and2(cin, p))
	return sum, cout
}

// addVec returns x + y + cin at the operand width and the carry-out.
func (b *Blaster) addVec(x, y []sat.Lit, cin sat.Lit) (out []sat.Lit, cout sat.Lit) {
	out = make([]sat.Lit, len(x))
	c := cin
	for i := range x {
		out[i], c = b.fullAdder(x[i], y[i], c)
	}
	return out, c
}

func (b *Blaster) notVec(x []sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(x))
	for i, l := range x {
		out[i] = l.Not()
	}
	return out
}

func (b *Blaster) negVec(x []sat.Lit) []sat.Lit {
	out, _ := b.addVec(b.notVec(x), b.constVec(len(x), big.NewInt(0)), b.tLit)
	return out
}

func (b *Blaster) subVec(x, y []sat.Lit) []sat.Lit {
	out, _ := b.addVec(x, b.notVec(y), b.tLit)
	return out
}

func (b *Blaster) constVec(w int, v *big.Int) []sat.Lit {
	val := bv.New(w, v)
	out := make([]sat.Lit, w)
	for i := range out {
		if val.Bit(i) == 1 {
			out[i] = b.tLit
		} else {
			out[i] = b.fLit()
		}
	}
	return out
}

func (b *Blaster) muxVec(s sat.Lit, x, y []sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(x))
	for i := range x {
		out[i] = b.mux(s, x[i], y[i])
	}
	return out
}

// mul returns the low n bits (n ≤ 2w) of the product of the w-bit
// vectors x and y, built as one w-row array: row i is y_i·x shifted left
// by i, added into an n-bit ripple-carry accumulator. Signed operands use
// Baugh–Wooley: the partial products that carry exactly one sign bit are
// complemented, and the accumulator starts at 2^w + 2^(2w−1) mod 2^(2w),
// which turns the unsigned sum of the rows into the two's-complement
// product. Unsigned operands need neither. Constant folding trims each row
// to the columns it reaches, and the low n bits of a wider product are
// the same gates, so a truncated product and a full one over the same
// operands share them through the gate cache.
func (b *Blaster) mul(x, y []sat.Lit, n int, signed bool) []sat.Lit {
	w := len(x)
	k := new(big.Int)
	if signed {
		k.SetBit(k, w, 1)
		k.Add(k, new(big.Int).Lsh(big.NewInt(1), uint(2*w-1)))
	}
	acc := b.constVec(n, k)
	row := make([]sat.Lit, n)
	for i := 0; i < w; i++ {
		for j := range row {
			row[j] = b.fLit()
		}
		for j := 0; j < w && i+j < n; j++ {
			pp := b.and2(x[j], y[i])
			if signed && (i == w-1) != (j == w-1) {
				pp = pp.Not()
			}
			row[i+j] = pp
		}
		acc, _ = b.addVec(acc, row, b.fLit())
	}
	return acc
}

// eqVec returns a literal that is true iff x == y bitwise.
func (b *Blaster) eqVec(x, y []sat.Lit) sat.Lit {
	parts := make([]sat.Lit, len(x))
	for i := range x {
		parts[i] = b.eq2(x[i], y[i])
	}
	return b.bigAnd(parts)
}

// ultVec returns a literal for unsigned x < y.
func (b *Blaster) ultVec(x, y []sat.Lit) sat.Lit {
	lt := b.fLit()
	for i := 0; i < len(x); i++ { // LSB to MSB
		bitLt := b.and2(x[i].Not(), y[i])
		lt = b.mux(b.eq2(x[i], y[i]), lt, bitLt)
	}
	return lt
}

// sltVec returns a literal for signed x < y (complement the sign bits and
// compare unsigned).
func (b *Blaster) sltVec(x, y []sat.Lit) sat.Lit {
	w := len(x)
	x2 := make([]sat.Lit, w)
	y2 := make([]sat.Lit, w)
	copy(x2, x)
	copy(y2, y)
	x2[w-1] = x[w-1].Not()
	y2[w-1] = y[w-1].Not()
	return b.ultVec(x2, y2)
}

// zext zero-extends x to width w.
func (b *Blaster) zext(x []sat.Lit, w int) []sat.Lit {
	out := make([]sat.Lit, w)
	copy(out, x)
	for i := len(x); i < w; i++ {
		out[i] = b.fLit()
	}
	return out
}

// imply asserts cond -> l.
func (b *Blaster) imply(cond, l sat.Lit) {
	if b.isT(cond) {
		b.s.AddClause(l)
		return
	}
	if b.isF(cond) {
		return
	}
	b.s.AddClause(cond.Not(), l)
}

// implyEqVec asserts cond -> (x == y) bitwise.
func (b *Blaster) implyEqVec(cond sat.Lit, x, y []sat.Lit) {
	for i := range x {
		b.imply(cond, b.eq2(x[i], y[i]))
	}
}

// udivVec introduces quotient and remainder vectors constrained per
// SMT-LIB semantics (division by zero yields all-ones quotient and the
// dividend as remainder).
func (b *Blaster) udivVec(x, y []sat.Lit) (q, r []sat.Lit) {
	w := len(x)
	q = make([]sat.Lit, w)
	r = make([]sat.Lit, w)
	for i := range q {
		q[i] = b.fresh()
		r[i] = b.fresh()
	}
	zero := b.constVec(w, big.NewInt(0))
	yIsZero := b.eqVec(y, zero)

	// Division case: x == y*q + r (computed at 2w so nothing wraps), r < y.
	prod := b.mul(y, q, 2*w, false)
	sum, _ := b.addVec(prod, b.zext(r, 2*w), b.fLit())
	xw := b.zext(x, 2*w)
	b.implyEqVec(yIsZero.Not(), sum, xw)
	b.imply(yIsZero.Not(), b.ultVec(r, y))

	// Zero-divisor case: q = all ones, r = x.
	ones := b.constVec(w, new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(w)), big.NewInt(1)))
	b.implyEqVec(yIsZero, q, ones)
	b.implyEqVec(yIsZero, r, x)
	return q, r
}

// sdivParts computes signed division via magnitudes, returning quotient
// and remainder (remainder sign follows the dividend).
func (b *Blaster) sdivParts(x, y []sat.Lit) (quot, rem []sat.Lit) {
	w := len(x)
	negX := x[w-1]
	negY := y[w-1]
	absX := b.muxVec(negX, b.negVec(x), x)
	absY := b.muxVec(negY, b.negVec(y), y)
	q, r := b.udivVec(absX, absY)
	quot = b.muxVec(b.xor2(negX, negY), b.negVec(q), q)
	rem = b.muxVec(negX, b.negVec(r), r)
	return quot, rem
}

// shiftVec builds a barrel shifter. dir: 0 = shl, 1 = lshr, 2 = ashr.
func (b *Blaster) shiftVec(x, amt []sat.Lit, dir int) []sat.Lit {
	w := len(x)
	fill := b.fLit()
	if dir == 2 {
		fill = x[w-1]
	}
	cur := x
	// Stage shifts for amount bits below the width.
	for j := 0; (1<<j) < w && j < len(amt); j++ {
		shifted := make([]sat.Lit, w)
		k := 1 << j
		for i := 0; i < w; i++ {
			var src sat.Lit
			if dir == 0 { // left
				if i-k >= 0 {
					src = cur[i-k]
				} else {
					src = b.fLit()
				}
			} else { // right
				if i+k < w {
					src = cur[i+k]
				} else {
					src = fill
				}
			}
			shifted[i] = b.mux(amt[j], src, cur[i])
		}
		cur = shifted
	}
	// Shift amounts of w or more saturate to the fill value.
	wConst := b.constVec(len(amt), big.NewInt(int64(w)))
	over := b.ultVec(amt, wConst).Not()
	full := make([]sat.Lit, w)
	for i := range full {
		full[i] = fill
	}
	return b.muxVec(over, full, cur)
}

// boolTerm encodes a boolean term and returns its literal.
func (b *Blaster) boolTerm(t *smt.Term) (sat.Lit, error) {
	if l, ok := b.bools[t]; ok {
		return l, nil
	}
	l, err := b.boolTermUncached(t)
	if err != nil {
		return 0, err
	}
	b.bools[t] = l
	return l, nil
}

func (b *Blaster) boolTermUncached(t *smt.Term) (sat.Lit, error) {
	switch t.Op {
	case smt.OpTrue:
		return b.tLit, nil
	case smt.OpFalse:
		return b.fLit(), nil
	case smt.OpVar:
		return 0, fmt.Errorf("bitblast: undeclared boolean variable %q", t.Name)
	case smt.OpNot:
		l, err := b.boolTerm(t.Args[0])
		if err != nil {
			return 0, err
		}
		return l.Not(), nil
	case smt.OpAnd, smt.OpOr, smt.OpXor, smt.OpImplies:
		ls := make([]sat.Lit, len(t.Args))
		for i, a := range t.Args {
			l, err := b.boolTerm(a)
			if err != nil {
				return 0, err
			}
			ls[i] = l
		}
		switch t.Op {
		case smt.OpAnd:
			return b.bigAnd(ls), nil
		case smt.OpOr:
			return b.bigOr(ls), nil
		case smt.OpXor:
			out := ls[0]
			for _, l := range ls[1:] {
				out = b.xor2(out, l)
			}
			return out, nil
		default: // implies, right-associative
			out := ls[len(ls)-1]
			for i := len(ls) - 2; i >= 0; i-- {
				out = b.or2(ls[i].Not(), out)
			}
			return out, nil
		}
	case smt.OpIte:
		c, err := b.boolTerm(t.Args[0])
		if err != nil {
			return 0, err
		}
		x, err := b.boolTerm(t.Args[1])
		if err != nil {
			return 0, err
		}
		y, err := b.boolTerm(t.Args[2])
		if err != nil {
			return 0, err
		}
		return b.mux(c, x, y), nil
	case smt.OpEq, smt.OpDistinct:
		return b.eqDistinct(t)
	case smt.OpBVSLe, smt.OpBVSLt, smt.OpBVSGe, smt.OpBVSGt,
		smt.OpBVULe, smt.OpBVULt, smt.OpBVUGe, smt.OpBVUGt:
		x, err := b.bvTerm(t.Args[0])
		if err != nil {
			return 0, err
		}
		y, err := b.bvTerm(t.Args[1])
		if err != nil {
			return 0, err
		}
		switch t.Op {
		case smt.OpBVSLt:
			return b.sltVec(x, y), nil
		case smt.OpBVSGt:
			return b.sltVec(y, x), nil
		case smt.OpBVSLe:
			return b.sltVec(y, x).Not(), nil
		case smt.OpBVSGe:
			return b.sltVec(x, y).Not(), nil
		case smt.OpBVULt:
			return b.ultVec(x, y), nil
		case smt.OpBVUGt:
			return b.ultVec(y, x), nil
		case smt.OpBVULe:
			return b.ultVec(y, x).Not(), nil
		default:
			return b.ultVec(x, y).Not(), nil
		}
	case smt.OpBVNegO, smt.OpBVSAddO, smt.OpBVSSubO, smt.OpBVSMulO, smt.OpBVSDivO:
		return b.overflow(t)
	case smt.OpFPEq, smt.OpFPLt, smt.OpFPLe, smt.OpFPGt, smt.OpFPGe, smt.OpFPIsNaN, smt.OpFPIsInf:
		return b.fpPredicate(t)
	}
	return 0, fmt.Errorf("bitblast: unsupported boolean operator %v", t.Op)
}

func (b *Blaster) eqDistinct(t *smt.Term) (sat.Lit, error) {
	kind := t.Args[0].Sort.Kind
	argLit := func(i, j int) (sat.Lit, error) {
		if kind == smt.KindBool {
			x, err := b.boolTerm(t.Args[i])
			if err != nil {
				return 0, err
			}
			y, err := b.boolTerm(t.Args[j])
			if err != nil {
				return 0, err
			}
			return b.eq2(x, y), nil
		}
		x, err := b.bvTerm(t.Args[i])
		if err != nil {
			return 0, err
		}
		y, err := b.bvTerm(t.Args[j])
		if err != nil {
			return 0, err
		}
		if kind == smt.KindFloat {
			return b.fpSame(smt.FPFormat(t.Args[i].Sort), x, y), nil
		}
		return b.eqVec(x, y), nil
	}
	if t.Op == smt.OpEq {
		var parts []sat.Lit
		for i := 0; i+1 < len(t.Args); i++ {
			eq, err := argLit(i, i+1)
			if err != nil {
				return 0, err
			}
			parts = append(parts, eq)
		}
		return b.bigAnd(parts), nil
	}
	var parts []sat.Lit
	for i := range t.Args {
		for j := i + 1; j < len(t.Args); j++ {
			eq, err := argLit(i, j)
			if err != nil {
				return 0, err
			}
			parts = append(parts, eq.Not())
		}
	}
	return b.bigAnd(parts), nil
}

func (b *Blaster) overflow(t *smt.Term) (sat.Lit, error) {
	x, err := b.bvTerm(t.Args[0])
	if err != nil {
		return 0, err
	}
	w := len(x)
	minVec := b.constVec(w, bv.MinSigned(w))
	switch t.Op {
	case smt.OpBVNegO:
		return b.eqVec(x, minVec), nil
	}
	y, err := b.bvTerm(t.Args[1])
	if err != nil {
		return 0, err
	}
	switch t.Op {
	case smt.OpBVSAddO:
		sum, _ := b.addVec(x, y, b.fLit())
		sameSign := b.eq2(x[w-1], y[w-1])
		flipped := b.xor2(sum[w-1], x[w-1])
		return b.and2(sameSign, flipped), nil
	case smt.OpBVSSubO:
		diff := b.subVec(x, y)
		diffSign := b.xor2(x[w-1], y[w-1])
		flipped := b.xor2(diff[w-1], x[w-1])
		return b.and2(diffSign, flipped), nil
	case smt.OpBVSMulO:
		// The leading-bit test of Boolector's and Bitwuzla's smulo. With
		// x̂ᵢ = xᵢ ⊕ x_{w−1} and ŷⱼ = yⱼ ⊕ y_{w−1} (the magnitude bits, one's
		// complemented when negative), a set pair x̂ᵢ, ŷⱼ with i + j ≥ w−1
		// puts x·y outside the w-bit range. Without one, |x·y| ≤ 2^w, so
		// the (w+1)-bit product decides: x·y overflows iff its top two bits
		// differ. The product's low w bits are the gates bvmul builds over
		// the same operands.
		p := b.mul(x, y, w+1, true)
		ovf := b.xor2(p[w], p[w-1])
		xHigh := b.fLit() // x̂_{w−1−j} ∨ … ∨ x̂_{w−2}
		for j := 1; j <= w-2; j++ {
			xHigh = b.or2(xHigh, b.xor2(x[w-1-j], x[w-1]))
			ovf = b.or2(ovf, b.and2(b.xor2(y[j], y[w-1]), xHigh))
		}
		return ovf, nil
	case smt.OpBVSDivO:
		minusOne := b.constVec(w, big.NewInt(-1))
		return b.and2(b.eqVec(x, minVec), b.eqVec(y, minusOne)), nil
	}
	return 0, fmt.Errorf("bitblast: unsupported overflow predicate %v", t.Op)
}

// bvTerm encodes a bitvector term into a literal vector.
func (b *Blaster) bvTerm(t *smt.Term) ([]sat.Lit, error) {
	if v, ok := b.bits[t]; ok {
		return v, nil
	}
	v, err := b.bvTermUncached(t)
	if err != nil {
		return nil, err
	}
	b.bits[t] = v
	return v, nil
}

func (b *Blaster) bvTermUncached(t *smt.Term) ([]sat.Lit, error) {
	switch t.Op {
	case smt.OpBVConst:
		return b.constVec(t.Sort.Width, t.IntVal), nil
	case smt.OpVar:
		return nil, fmt.Errorf("bitblast: undeclared bitvector variable %q", t.Name)
	case smt.OpIte:
		c, err := b.boolTerm(t.Args[0])
		if err != nil {
			return nil, err
		}
		x, err := b.bvTerm(t.Args[1])
		if err != nil {
			return nil, err
		}
		y, err := b.bvTerm(t.Args[2])
		if err != nil {
			return nil, err
		}
		return b.muxVec(c, x, y), nil
	}
	if t.Sort.Kind == smt.KindFloat {
		return b.fpTerm(t)
	}

	args := make([][]sat.Lit, len(t.Args))
	for i, a := range t.Args {
		v, err := b.bvTerm(a)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	fold := func(f func(x, y []sat.Lit) []sat.Lit) []sat.Lit {
		acc := args[0]
		for _, a := range args[1:] {
			acc = f(acc, a)
		}
		return acc
	}
	bitwise := func(g func(x, y sat.Lit) sat.Lit) []sat.Lit {
		return fold(func(x, y []sat.Lit) []sat.Lit {
			out := make([]sat.Lit, len(x))
			for i := range x {
				out[i] = g(x[i], y[i])
			}
			return out
		})
	}

	switch t.Op {
	case smt.OpBVNot:
		return b.notVec(args[0]), nil
	case smt.OpBVNeg:
		return b.negVec(args[0]), nil
	case smt.OpBVAnd:
		return bitwise(b.and2), nil
	case smt.OpBVOr:
		return bitwise(b.or2), nil
	case smt.OpBVXor:
		return bitwise(b.xor2), nil
	case smt.OpBVAdd:
		return fold(func(x, y []sat.Lit) []sat.Lit {
			out, _ := b.addVec(x, y, b.fLit())
			return out
		}), nil
	case smt.OpBVSub:
		return fold(b.subVec), nil
	case smt.OpBVMul:
		// Built signed, as the low w bits of the (w+1)-bit product a
		// bvsmulo guard on the same operands builds, so the two share
		// every gate.
		return fold(func(x, y []sat.Lit) []sat.Lit { return b.mul(x, y, len(x), true) }), nil
	case smt.OpBVUDiv:
		q, _ := b.udivVec(args[0], args[1])
		return q, nil
	case smt.OpBVURem:
		_, r := b.udivVec(args[0], args[1])
		return r, nil
	case smt.OpBVSDiv:
		q, _ := b.sdivParts(args[0], args[1])
		return q, nil
	case smt.OpBVSRem:
		_, r := b.sdivParts(args[0], args[1])
		return r, nil
	case smt.OpBVSMod:
		_, r := b.sdivParts(args[0], args[1])
		w := len(r)
		zero := b.constVec(w, big.NewInt(0))
		rZero := b.eqVec(r, zero)
		signDiff := b.xor2(r[w-1], args[1][w-1])
		adjusted, _ := b.addVec(r, args[1], b.fLit())
		cond := b.and2(rZero.Not(), signDiff)
		return b.muxVec(cond, adjusted, r), nil
	case smt.OpBVShl:
		return b.shiftVec(args[0], args[1], 0), nil
	case smt.OpBVLshr:
		return b.shiftVec(args[0], args[1], 1), nil
	case smt.OpBVAshr:
		return b.shiftVec(args[0], args[1], 2), nil
	}
	return nil, fmt.Errorf("bitblast: unsupported bitvector operator %v", t.Op)
}
