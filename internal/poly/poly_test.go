package poly

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"staub/internal/interval"
	"staub/internal/smt"
)

func mustTerm(t *testing.T, src string) (*smt.Constraint, *smt.Term) {
	t.Helper()
	c, err := smt.ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	return c, c.Assertions[0]
}

func TestFromTermExpansion(t *testing.T) {
	_, a := mustTerm(t, `
		(declare-fun x () Int)
		(declare-fun y () Int)
		(assert (= (* (+ x y) (- x y)) 0))
		(check-sat)`)
	atoms, err := AtomFromTerm(a)
	if err != nil {
		t.Fatal(err)
	}
	// (x+y)(x-y) = x² - y².
	p := atoms[0].P
	if p.Degree() != 2 {
		t.Errorf("degree = %d, want 2", p.Degree())
	}
	if c := p[MonomialOf("x", "x")]; c == nil || c.Cmp(big.NewRat(1, 1)) != 0 {
		t.Errorf("x² coefficient = %v, want 1", c)
	}
	if c := p[MonomialOf("y", "y")]; c == nil || c.Cmp(big.NewRat(-1, 1)) != 0 {
		t.Errorf("y² coefficient = %v, want -1", c)
	}
	if c, ok := p[MonomialOf("x", "y")]; ok {
		t.Errorf("xy coefficient = %v, want absent (cancelled)", c)
	}
}

// TestPolyEvalMatchesTermEval: the polynomial form evaluates identically
// to the original term under random assignments.
func TestPolyEvalMatchesTermEval(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 200; iter++ {
		c := smt.NewConstraint("QF_NIA")
		b := c.Builder
		x := c.MustDeclare("x", smt.IntSort)
		y := c.MustDeclare("y", smt.IntSort)
		var build func(d int) *smt.Term
		build = func(d int) *smt.Term {
			if d == 0 || rng.Intn(3) == 0 {
				switch rng.Intn(3) {
				case 0:
					return x
				case 1:
					return y
				default:
					return b.Int(int64(rng.Intn(9) - 4))
				}
			}
			l, r := build(d-1), build(d-1)
			switch rng.Intn(4) {
			case 0:
				return b.Add(l, r)
			case 1:
				return b.Sub(l, r)
			case 2:
				return b.Mul(l, r)
			default:
				return b.Neg(l)
			}
		}
		term := build(3)
		p, err := FromTerm(term)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 10; trial++ {
			xv := big.NewRat(int64(rng.Intn(21)-10), 1)
			yv := big.NewRat(int64(rng.Intn(21)-10), 1)
			got, err := p.Eval(map[string]*big.Rat{"x": xv, "y": yv})
			if err != nil {
				t.Fatal(err)
			}
			want := evalTermRat(term, xv, yv)
			if got.Cmp(want) != 0 {
				t.Fatalf("poly %v at (%v, %v) = %v, want %v (term %s)", p, xv, yv, got, want, term)
			}
		}
	}
}

func evalTermRat(t *smt.Term, x, y *big.Rat) *big.Rat {
	switch t.Op {
	case smt.OpVar:
		if t.Name == "x" {
			return new(big.Rat).Set(x)
		}
		return new(big.Rat).Set(y)
	case smt.OpIntConst:
		return new(big.Rat).SetInt(t.IntVal)
	case smt.OpNeg:
		return new(big.Rat).Neg(evalTermRat(t.Args[0], x, y))
	case smt.OpAdd:
		out := evalTermRat(t.Args[0], x, y)
		for _, a := range t.Args[1:] {
			out.Add(out, evalTermRat(a, x, y))
		}
		return out
	case smt.OpSub:
		out := evalTermRat(t.Args[0], x, y)
		for _, a := range t.Args[1:] {
			out.Sub(out, evalTermRat(a, x, y))
		}
		return out
	case smt.OpMul:
		out := evalTermRat(t.Args[0], x, y)
		for _, a := range t.Args[1:] {
			out.Mul(out, evalTermRat(a, x, y))
		}
		return out
	}
	panic("unreachable")
}

// TestEvalIntervalSoundness: the interval enclosure always contains the
// exact value at any point inside the box.
func TestEvalIntervalSoundness(t *testing.T) {
	f := func(coefRaw []int8, xLo, xSpan, yLo, ySpan int8, xOffRaw, yOffRaw uint8) bool {
		p := Poly{}
		monos := []Monomial{"", "x", "y", MonomialOf("x", "x"), MonomialOf("x", "y"), MonomialOf("y", "y")}
		for i, c := range coefRaw {
			if i >= len(monos) || c == 0 {
				break
			}
			p[monos[i]] = big.NewRat(int64(c), 1)
		}
		span := func(s int8) int64 { return int64(s&15) + 1 }
		box := map[string]interval.Interval{
			"x": interval.Of(int64(xLo), int64(xLo)+span(xSpan)),
			"y": interval.Of(int64(yLo), int64(yLo)+span(ySpan)),
		}
		iv := p.EvalInterval(box)
		// Sample a point in the box.
		xv := big.NewRat(int64(xLo)+int64(xOffRaw)%(span(xSpan)+1), 1)
		yv := big.NewRat(int64(yLo)+int64(yOffRaw)%(span(ySpan)+1), 1)
		val, err := p.Eval(map[string]*big.Rat{"x": xv, "y": yv})
		if err != nil {
			return false
		}
		return iv.Contains(val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestAtomRefutedCertainDuality(t *testing.T) {
	// x² + 1 <= 0 refuted over the full box; -(x²) - 1 <= 0 certain.
	p := Poly{MonomialOf("x", "x"): big.NewRat(1, 1), "": big.NewRat(1, 1)}
	box := map[string]interval.Interval{"x": interval.Full()}
	a := Atom{P: p, Rel: RelLe}
	if !a.Refuted(box) {
		t.Error("x²+1 <= 0 should be refuted")
	}
	neg := Atom{P: p.Neg(), Rel: RelLe}
	if !neg.Certain(box) {
		t.Error("-(x²+1) <= 0 should be certain")
	}
}

func TestDNFBasics(t *testing.T) {
	c, _ := mustTerm(t, `
		(declare-fun x () Int)
		(assert (or (and (> x 0) (< x 5)) (= x 10)))
		(check-sat)`)
	cases, err := DNFConstraint(c, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 2 {
		t.Fatalf("got %d cases, want 2", len(cases))
	}
	if len(cases[0]) != 2 || len(cases[1]) != 1 {
		t.Errorf("case sizes %d/%d, want 2/1", len(cases[0]), len(cases[1]))
	}
}

func TestDNFNegationPushing(t *testing.T) {
	c, _ := mustTerm(t, `
		(declare-fun x () Int)
		(assert (not (and (> x 0) (< x 5))))
		(check-sat)`)
	cases, err := DNFConstraint(c, 16)
	if err != nil {
		t.Fatal(err)
	}
	// ¬(a ∧ b) = ¬a ∨ ¬b: two cases.
	if len(cases) != 2 {
		t.Fatalf("got %d cases, want 2", len(cases))
	}
	// Verify semantics at sample points: x=3 violates, x=0 and x=7 satisfy.
	holdsAt := func(v int64) bool {
		pt := map[string]*big.Rat{"x": big.NewRat(v, 1)}
		for _, cs := range cases {
			all := true
			for _, a := range cs {
				ok, _ := a.Holds(pt)
				if !ok {
					all = false
					break
				}
			}
			if all {
				return true
			}
		}
		return false
	}
	if holdsAt(3) {
		t.Error("x=3 should violate ¬(0<x<5)")
	}
	if !holdsAt(0) || !holdsAt(7) {
		t.Error("x=0 and x=7 should satisfy ¬(0<x<5)")
	}
}

func TestDNFCaseLimit(t *testing.T) {
	// 2^6 disjunction cases exceed a limit of 16.
	src := `(declare-fun x () Int)`
	assertSrc := "(assert (and"
	for i := 0; i < 6; i++ {
		assertSrc += " (or (= x 0) (= x 1))"
	}
	assertSrc += "))"
	c, err := smt.ParseScript(src + assertSrc + "(check-sat)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DNFConstraint(c, 16); err == nil {
		t.Error("expected case-limit error")
	}
}

func TestSplitNe(t *testing.T) {
	p := Poly{"x": big.NewRat(1, 1)}
	cs := Case{{P: p, Rel: RelNe}, {P: p, Rel: RelLe}}
	out, err := SplitNe(cs, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d cases, want 2", len(out))
	}
	for _, oc := range out {
		for _, a := range oc {
			if a.Rel == RelNe {
				t.Error("RelNe survived the split")
			}
		}
	}
}

func TestNonPolynomialRejected(t *testing.T) {
	_, a := mustTerm(t, `
		(declare-fun x () Int)
		(assert (= (div x 2) 3))
		(check-sat)`)
	if _, err := AtomFromTerm(a); err == nil {
		t.Error("integer division should not be polynomial")
	}
}

func TestConstantDivisionIsCoefficient(t *testing.T) {
	_, a := mustTerm(t, `
		(declare-fun u () Real)
		(assert (= (/ u 4.0) 2.0))
		(check-sat)`)
	atoms, err := AtomFromTerm(a)
	if err != nil {
		t.Fatal(err)
	}
	// u/4 - 2 = 0 → coefficient 1/4.
	if c := atoms[0].P["u"]; c == nil || c.Cmp(big.NewRat(1, 4)) != 0 {
		t.Errorf("u coefficient = %v, want 1/4", c)
	}
}

// TestMonomialEncodingInjective: '*' is a legal SMT-LIB symbol character
// and || is a legal (empty) quoted symbol, so a variable named x*y must
// not read as the product x·y, nor one named "" as the constant monomial.
// Names without '*' or '"' keep their plain encoding.
func TestMonomialEncodingInjective(t *testing.T) {
	if got := MonomialOf("y", "x", "x"); got != "x*x*y" {
		t.Errorf("MonomialOf(y, x, x) = %q, want x*x*y", got)
	}
	if MonomialOf("x", "y") == MonomialOf("x*y") {
		t.Error("the variable x*y encodes like the product x·y")
	}
	for _, name := range []string{"x*y", "", `"q"`, "a*", "*", `a"*b`, `\x2a`} {
		v := Var(name)
		if d := v.Degree(); d != 1 {
			t.Errorf("Var(%q).Degree() = %d, want 1", name, d)
		}
		if got := v.Vars(); len(got) != 1 || got[0] != name {
			t.Errorf("Var(%q).Vars() = %q", name, got)
		}
		if !v.ConstPart().IsInt() || v.ConstPart().Sign() != 0 {
			t.Errorf("Var(%q) has constant part %v", name, v.ConstPart())
		}
		prod := v.Mul(Var("z"))
		if d := prod.Degree(); d != 2 {
			t.Errorf("Var(%q)·z has degree %d, want 2", name, d)
		}
		if got := prod.Vars(); len(got) != 2 {
			t.Errorf("Var(%q)·z has variables %q", name, got)
		}
		val, err := prod.Eval(map[string]*big.Rat{name: big.NewRat(3, 1), "z": big.NewRat(2, 1)})
		if err != nil || val.Cmp(big.NewRat(6, 1)) != 0 {
			t.Errorf("Var(%q)·z at (3, 2) = %v, %v; want 6", name, val, err)
		}
	}
	// A hand-built key whose quoted factor is malformed still decodes,
	// factor by factor.
	if got := Monomial(`"x*y`).Vars(); len(got) != 2 || got[0] != `"x` || got[1] != "y" {
		t.Errorf(`Monomial("x*y).Vars() = %q`, got)
	}
}
