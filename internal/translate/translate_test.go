package translate

import (
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"staub/internal/bitblast"
	"staub/internal/bv"
	"staub/internal/eval"
	"staub/internal/fp"
	"staub/internal/sat"
	"staub/internal/smt"
)

func parse(t *testing.T, src string) *smt.Constraint {
	t.Helper()
	c, err := smt.ParseScript(src)
	if err != nil {
		t.Fatalf("ParseScript: %v", err)
	}
	return c
}

func TestIntToBVFigure1(t *testing.T) {
	c := parse(t, `
		(declare-fun x () Int)
		(declare-fun y () Int)
		(declare-fun z () Int)
		(assert (= (+ (* x x x) (* y y y) (* z z z)) 855))
		(check-sat)`)
	res, err := IntToBV(c, 12)
	if err != nil {
		t.Fatal(err)
	}
	script := res.Bounded.Script()
	for _, want := range []string{
		"(_ BitVec 12)",
		"(_ bv855 12)",
		"bvmul",
		"bvadd",
		"(not (bvsmulo x x))",
	} {
		if !strings.Contains(script, want) {
			t.Errorf("translated script missing %q:\n%s", want, script)
		}
	}
	if res.Guards == 0 {
		t.Error("expected overflow guards")
	}
	if res.ConstOverflows != 0 {
		t.Errorf("855 fits in 12 bits; ConstOverflows = %d", res.ConstOverflows)
	}
}

func TestIntToBVConstWraps(t *testing.T) {
	c := parse(t, `
		(declare-fun x () Int)
		(assert (= x 855))
		(check-sat)`)
	res, err := IntToBV(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.ConstOverflows != 1 {
		t.Errorf("ConstOverflows = %d, want 1 (855 does not fit in 8 bits)", res.ConstOverflows)
	}
}

// TestGuardedTranslationIsUnderapproximation: any model of the bounded
// constraint maps back (via signed reading) to a model of the original
// integer constraint. This is the key soundness property that makes
// verification succeed whenever the bounded side is sat.
func TestGuardedTranslationIsUnderapproximation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ops := []smt.Op{smt.OpAdd, smt.OpSub, smt.OpMul}
	cmps := []smt.Op{smt.OpEq, smt.OpLe, smt.OpLt, smt.OpGe, smt.OpGt}
	for iter := 0; iter < 300; iter++ {
		c := smt.NewConstraint("QF_NIA")
		b := c.Builder
		nVars := 1 + rng.Intn(3)
		vars := make([]*smt.Term, nVars)
		for i := range vars {
			vars[i] = c.MustDeclare(string(rune('a'+i)), smt.IntSort)
		}
		var build func(depth int) *smt.Term
		build = func(depth int) *smt.Term {
			if depth == 0 || rng.Intn(3) == 0 {
				if rng.Intn(2) == 0 {
					return vars[rng.Intn(nVars)]
				}
				return b.Int(int64(rng.Intn(15) - 7))
			}
			op := ops[rng.Intn(len(ops))]
			return b.MustApply(op, build(depth-1), build(depth-1))
		}
		nAsserts := 1 + rng.Intn(2)
		for k := 0; k < nAsserts; k++ {
			c.MustAssert(b.MustApply(cmps[rng.Intn(len(cmps))], build(2), build(1)))
		}

		width := 5 + rng.Intn(4)
		res, err := IntToBV(c, width)
		if err != nil {
			t.Fatal(err)
		}

		// Random assignment to the bounded constraint's variables.
		basg := eval.Assignment{}
		for _, v := range res.Bounded.Vars {
			basg[v.Name] = eval.BVValue(bv.NewInt64(width, int64(rng.Intn(1<<width))))
		}
		ok, err := eval.Constraint(res.Bounded, basg)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue // not a model; nothing to check
		}
		// Map back and check against the original.
		orig, err := res.ModelBack(basg)
		if err != nil {
			t.Fatal(err)
		}
		holds, err := eval.Constraint(c, orig)
		if err != nil {
			t.Fatal(err)
		}
		if !holds {
			t.Fatalf("bounded model %v maps to non-model %v of:\n%s\nbounded:\n%s",
				basg, orig, c.Script(), res.Bounded.Script())
		}
	}
}

func TestRangeHintsNarrowVariables(t *testing.T) {
	c := parse(t, `
		(declare-fun a () Int)
		(declare-fun b () Int)
		(assert (<= a 7))
		(assert (>= a 0))
		(assert (= (+ (* a a) b) 500))
		(check-sat)`)
	// a is compared with 7, so 5 bits hold it; b gets the full width.
	hints := map[string]int{"a": 5, "b": 12}
	res, err := IntToBVWithHints(c, 12, hints)
	if err != nil {
		t.Fatal(err)
	}
	script := res.Bounded.Script()
	if !strings.Contains(script, "bvsge a") && !strings.Contains(script, "(bvsge a") {
		t.Errorf("missing range assertion for a:\n%s", script)
	}
	// A genuine model must still satisfy the hinted constraint:
	// a=7, b=451 → 49+451 = 500.
	asg := eval.Assignment{
		"a": eval.BVValue(bv.NewInt64(12, 7)),
		"b": eval.BVValue(bv.NewInt64(12, 451)),
	}
	ok, err := eval.Constraint(res.Bounded, asg)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("planted model rejected by hinted translation:\n%s", script)
	}
	orig, err := res.ModelBack(asg)
	if err != nil {
		t.Fatal(err)
	}
	if holds, err := eval.Constraint(c, orig); err != nil || !holds {
		t.Errorf("model-back failed: %v %v", holds, err)
	}
}

func TestRealToFPGuardsVariables(t *testing.T) {
	c := parse(t, `
		(declare-fun u () Real)
		(assert (> (* u u) 2.0))
		(check-sat)`)
	res, err := RealToFP(c, smt.FloatSort(5, 11))
	if err != nil {
		t.Fatal(err)
	}
	script := res.Bounded.Script()
	if !strings.Contains(script, "fp.isNaN") || !strings.Contains(script, "fp.isInfinite") {
		t.Errorf("missing NaN/Inf guards:\n%s", script)
	}
	if !strings.Contains(script, "fp.mul") || !strings.Contains(script, "fp.gt") {
		t.Errorf("missing fp operations:\n%s", script)
	}
}

func TestRealToFPInexactConstants(t *testing.T) {
	c := parse(t, `
		(declare-fun u () Real)
		(assert (= u 0.1))
		(check-sat)`)
	res, err := RealToFP(c, smt.FloatSort(5, 11))
	if err != nil {
		t.Fatal(err)
	}
	if res.InexactConsts == 0 {
		t.Error("0.1 cannot be exact in binary floating point")
	}
}

func TestRealModelBack(t *testing.T) {
	c := parse(t, `
		(declare-fun u () Real)
		(assert (> u 0.5))
		(check-sat)`)
	sort := smt.FloatSort(5, 11)
	res, err := RealToFP(c, sort)
	if err != nil {
		t.Fatal(err)
	}
	one, _ := fp.FromRat(smt.FPFormat(sort), big.NewRat(3, 4))
	m, err := res.ModelBack(eval.Assignment{"u": eval.FPValue(one)})
	if err != nil {
		t.Fatal(err)
	}
	if m["u"].Rat.Cmp(big.NewRat(3, 4)) != 0 {
		t.Errorf("u mapped to %v, want 3/4", m["u"].Rat)
	}
	// NaN cannot map back.
	_, err = res.ModelBack(eval.Assignment{"u": eval.FPValue(smt.FPFormat(sort).NaN())})
	if err == nil {
		t.Error("NaN should fail model-back")
	}
}

func TestClassify(t *testing.T) {
	intC := parse(t, `(declare-fun x () Int)(assert (> x 0))(check-sat)`)
	if k, err := Classify(intC); err != nil || k != KindIntToBV {
		t.Errorf("Classify(int) = %v, %v", k, err)
	}
	realC := parse(t, `(declare-fun x () Real)(assert (> x 0.0))(check-sat)`)
	if k, err := Classify(realC); err != nil || k != KindRealToFP {
		t.Errorf("Classify(real) = %v, %v", k, err)
	}
	mixed := smt.NewConstraint("")
	mixed.MustDeclare("i", smt.IntSort)
	mixed.MustDeclare("r", smt.RealSort)
	if _, err := Classify(mixed); err == nil {
		t.Error("mixed constraint should be rejected")
	}
	bvc := smt.NewConstraint("")
	bvc.MustDeclare("v", smt.BitVecSort(8))
	if _, err := Classify(bvc); err == nil {
		t.Error("already-bounded constraint should be rejected")
	}
}

func TestTransformEndToEnd(t *testing.T) {
	c := parse(t, `
		(declare-fun x () Int)
		(assert (= (* x x) 49))
		(check-sat)`)
	res, err := Transform(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindIntToBV {
		t.Errorf("Kind = %v", res.Kind)
	}
	if res.Width < 7 || res.Width > 10 {
		t.Errorf("width = %d, want around 8", res.Width)
	}
}

func TestAbsTranslation(t *testing.T) {
	c := parse(t, `
		(declare-fun x () Int)
		(assert (= (abs x) 5))
		(assert (< x 0))
		(check-sat)`)
	res, err := IntToBV(c, 6)
	if err != nil {
		t.Fatal(err)
	}
	// x = -5 must satisfy the bounded constraint.
	asg := eval.Assignment{"x": eval.BVValue(bv.NewInt64(6, -5))}
	ok, err := eval.Constraint(res.Bounded, asg)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("abs translation rejects x=-5:\n%s", res.Bounded.Script())
	}
}

func TestModTranslationSemanticDifference(t *testing.T) {
	// SMT-LIB Int mod is Euclidean (non-negative); bvsmod follows the
	// divisor sign. For positive divisors they agree.
	c := parse(t, `
		(declare-fun x () Int)
		(assert (= (mod x 3) 2))
		(assert (< x 0))
		(check-sat)`)
	res, err := IntToBV(c, 6)
	if err != nil {
		t.Fatal(err)
	}
	// x = -7: mod(-7, 3) = 2 Euclidean; bvsmod(-7, 3) = 2 as well.
	asg := eval.Assignment{"x": eval.BVValue(bv.NewInt64(6, -7))}
	ok, err := eval.Constraint(res.Bounded, asg)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("positive-divisor mod should agree:\n%s", res.Bounded.Script())
	}
}

// TestRealToFPOperatorsHaveCircuits pins the real-to-FP translation to
// the bit-blaster: one constraint uses every operator RealToFP emits
// (every realOpMap target plus fp.eq, fp.neg, fp.isNaN, fp.isInfinite,
// a floating-point ite, and = and distinct over booleans), its translation
// must encode, and CDCL's model must satisfy it under the evaluator. A
// new realOpMap entry fails the test until the constraint uses it, and
// then fails it again if it has no circuit.
func TestRealToFPOperatorsHaveCircuits(t *testing.T) {
	c := parse(t, `(declare-fun x () Real) (declare-fun y () Real)
		(declare-fun p () Bool) (declare-fun q () Bool)
		(assert (= (+ x y) 3.0)) (assert (< (- x y) 1.0)) (assert (<= (* x y) 2.0))
		(assert (> (/ x 2.0) 0.0)) (assert (>= (- x) (- 2.0))) (assert (distinct x y))
		(assert (= p (> x y))) (assert (distinct p q)) (assert (= (ite p x y) 2.0))
		(check-sat)`)
	res, err := RealToFP(c, smt.FloatSort(4, 6))
	if err != nil {
		t.Fatal(err)
	}
	used := map[smt.Op]bool{}
	for _, a := range res.Bounded.Assertions {
		a.Walk(func(tm *smt.Term) bool {
			if tm.Op != smt.OpIte || tm.Sort.Kind == smt.KindFloat {
				used[tm.Op] = true
			}
			return true
		})
	}
	want := []smt.Op{smt.OpFPEq, smt.OpFPNeg, smt.OpFPIsNaN, smt.OpFPIsInf, smt.OpIte, smt.OpEq, smt.OpDistinct}
	for _, op := range realOpMap {
		want = append(want, op)
	}
	for _, op := range want {
		if !used[op] {
			t.Errorf("the translation does not use %v; extend the constraint", op)
		}
	}
	st, m, err := bitblast.Solve(res.Bounded, nil)
	if err != nil {
		t.Fatalf("bitblast: %v", err)
	}
	if st != sat.Sat {
		t.Fatalf("CDCL answered %v, want sat (x = 1, y = 2)", st)
	}
	if ok, err := eval.Constraint(res.Bounded, m); err != nil || !ok {
		t.Fatalf("CDCL model %v does not satisfy the translation (%v)", m, err)
	}
}
