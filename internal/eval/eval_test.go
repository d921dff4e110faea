package eval

import (
	"math/big"
	"testing"

	"staub/internal/bv"
	"staub/internal/fp"
	"staub/internal/smt"
)

func mustParse(t *testing.T, src string) *smt.Constraint {
	t.Helper()
	c, err := smt.ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestIntArithmetic(t *testing.T) {
	c := mustParse(t, `
		(declare-fun x () Int)
		(declare-fun y () Int)
		(assert (= (+ (* x x) (- y) (abs y)) 12))
		(check-sat)`)
	// x=3, y=-3: 9 + 3 + 3 = 15? No: 9 - (-3) is +3, abs(-3)=3 → 9+3+3=15.
	got, err := Bool(c.Assertions[0], Assignment{
		"x": IntValue64(3), "y": IntValue64(-3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("9+3+3=15 should not equal 12")
	}
	// x=3, y=3: 9 - 3 + 3 = 9. x=2,y=-4: 4+4+4=12 ✓
	got, err = Bool(c.Assertions[0], Assignment{
		"x": IntValue64(2), "y": IntValue64(-4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("4+4+4=12 should hold")
	}
}

func TestEuclideanDivMod(t *testing.T) {
	c := mustParse(t, `
		(declare-fun x () Int)
		(declare-fun q () Int)
		(declare-fun m () Int)
		(assert (= q (div x 3)))
		(assert (= m (mod x 3)))
		(check-sat)`)
	// SMT-LIB division is Euclidean: div(-7, 3) = -3, mod(-7, 3) = 2.
	asg := Assignment{"x": IntValue64(-7), "q": IntValue64(-3), "m": IntValue64(2)}
	ok, err := Constraint(c, asg)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("Euclidean div/mod of -7 by 3 should be (-3, 2)")
	}
	// Negative divisor: div(-7, -3) = 3, mod(-7, -3) = 2.
	c2 := mustParse(t, `
		(declare-fun x () Int)
		(assert (= (div x (- 3)) 3))
		(assert (= (mod x (- 3)) 2))
		(check-sat)`)
	ok, err = Constraint(c2, Assignment{"x": IntValue64(-7)})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("Euclidean div/mod of -7 by -3 should be (3, 2)")
	}
}

func TestDivisionByZeroIsError(t *testing.T) {
	c := mustParse(t, `
		(declare-fun x () Int)
		(assert (= (div x 0) 1))
		(check-sat)`)
	if _, err := Constraint(c, Assignment{"x": IntValue64(5)}); err == nil {
		t.Error("division by zero should be an error")
	}
}

func TestShortCircuitGuardsDivision(t *testing.T) {
	// The guard makes the division unreachable; evaluation must not fail.
	c := mustParse(t, `
		(declare-fun x () Int)
		(assert (or (= x 0) (= (div 10 x) 5)))
		(check-sat)`)
	ok, err := Constraint(c, Assignment{"x": IntValue64(0)})
	if err != nil {
		t.Fatalf("short-circuit failed: %v", err)
	}
	if !ok {
		t.Error("x=0 satisfies the first disjunct")
	}
}

func TestRealArithmetic(t *testing.T) {
	c := mustParse(t, `
		(declare-fun u () Real)
		(assert (= (* u u) (/ 9.0 4.0)))
		(assert (< u 0.0))
		(check-sat)`)
	ok, err := Constraint(c, Assignment{"u": RatValue(big.NewRat(-3, 2))})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("u=-3/2 should satisfy u² = 9/4 ∧ u < 0")
	}
}

func TestChainedComparisons(t *testing.T) {
	c := mustParse(t, `
		(declare-fun a () Int)
		(declare-fun b () Int)
		(declare-fun c () Int)
		(assert (< a b c))
		(check-sat)`)
	ok, _ := Constraint(c, Assignment{"a": IntValue64(1), "b": IntValue64(2), "c": IntValue64(3)})
	if !ok {
		t.Error("1 < 2 < 3 should hold")
	}
	ok, _ = Constraint(c, Assignment{"a": IntValue64(1), "b": IntValue64(3), "c": IntValue64(2)})
	if ok {
		t.Error("1 < 3 < 2 should not hold")
	}
}

func TestDistinct(t *testing.T) {
	c := mustParse(t, `
		(declare-fun a () Int)
		(declare-fun b () Int)
		(declare-fun c () Int)
		(assert (distinct a b c))
		(check-sat)`)
	ok, _ := Constraint(c, Assignment{"a": IntValue64(1), "b": IntValue64(2), "c": IntValue64(1)})
	if ok {
		t.Error("distinct(1,2,1) should fail")
	}
}

func TestIteAndBool(t *testing.T) {
	c := mustParse(t, `
		(declare-fun p () Bool)
		(declare-fun x () Int)
		(assert (= (ite p x (- x)) 5))
		(check-sat)`)
	ok, _ := Constraint(c, Assignment{"p": BoolValue(false), "x": IntValue64(-5)})
	if !ok {
		t.Error("ite(false, -5, 5) = 5 should hold")
	}
}

func TestBVEval(t *testing.T) {
	c := mustParse(t, `
		(declare-fun v () (_ BitVec 8))
		(assert (bvslt (bvadd v (_ bv1 8)) v))
		(check-sat)`)
	// Signed overflow: v = 127 → v+1 = -128 < 127.
	ok, err := Constraint(c, Assignment{"v": BVValue(bv.NewInt64(8, 127))})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("127+1 wraps to -128 which is signed-less than 127")
	}
}

func TestUnassignedVariableIsError(t *testing.T) {
	c := mustParse(t, `(declare-fun x () Int)(assert (> x 0))(check-sat)`)
	if _, err := Constraint(c, Assignment{}); err == nil {
		t.Error("missing assignment should be an error")
	}
}

func TestWrongSortIsError(t *testing.T) {
	c := mustParse(t, `(declare-fun x () Int)(assert (> x 0))(check-sat)`)
	if _, err := Constraint(c, Assignment{"x": RatValue(big.NewRat(1, 1))}); err == nil {
		t.Error("wrongly-sorted assignment should be an error")
	}
}

func TestToRealToInt(t *testing.T) {
	c := mustParse(t, `
		(declare-fun x () Int)
		(declare-fun u () Real)
		(assert (= (to_real x) 3.0))
		(check-sat)`)
	ok, err := Constraint(c, Assignment{"x": IntValue64(3), "u": RatValue(new(big.Rat))})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("to_real(3) = 3.0 should hold")
	}
}

// TestFPEqualityHasOneNaN: SMT-LIB's FloatingPoint theory has a single
// NaN, so = and distinct identify NaNs whatever their sign bit, while
// +0 and -0 stay distinct values.
func TestFPEqualityHasOneNaN(t *testing.T) {
	c := mustParse(t, `
		(declare-fun x () (_ FloatingPoint 8 24))
		(assert (= (fp.neg (_ NaN 8 24)) (_ NaN 8 24)))
		(assert (not (distinct (fp.neg (fp.div RNE x x)) (fp.div RNE x x))))
		(assert (distinct (fp.neg x) x))
		(check-sat)`)
	ok, err := Constraint(c, Assignment{"x": FPValue(fp.Float32.Zero(false))})
	if err != nil || !ok {
		t.Fatalf("NaN equality at x = +0: %t, %v; want true", ok, err)
	}
}
