package overapprox

import (
	"context"
	"strings"
	"testing"
	"time"

	"staub/internal/interval"
	"staub/internal/metrics"
	"staub/internal/pipeline"
	"staub/internal/smt"
	"staub/internal/status"
)

func parse(t *testing.T, src string) *smt.Constraint {
	t.Helper()
	c, err := smt.ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func runOver(t *testing.T, src string) pipeline.Result {
	t.Helper()
	c := parse(t, src)
	cfg := pipeline.Config{Timeout: 2 * time.Second, Deterministic: true, OverApprox: true}
	return pipeline.Run(context.Background(), c, cfg, nil)
}

func TestCertifiedBoundedUnsatIsSound(t *testing.T) {
	// Every variable doubly bounded; the system is unsat. Interval
	// propagation certifies a complete width, so bounded-unsat is a real
	// unsat under DirExact.
	res := runOver(t, `
		(set-logic QF_LIA)
		(declare-fun x () Int)
		(declare-fun y () Int)
		(assert (>= x 0))
		(assert (<= x 10))
		(assert (>= y 0))
		(assert (<= y 10))
		(assert (>= (+ x y) 25))
		(check-sat)`)
	if res.Status != status.Unsat {
		t.Fatalf("status = %v, want unsat (outcome %v, dir %v)", res.Status, res.Outcome, res.Direction)
	}
	if res.Direction != pipeline.DirExact {
		t.Errorf("direction = %v, want exact", res.Direction)
	}
	if res.Outcome != pipeline.OutcomeBoundedUnsat {
		t.Errorf("outcome = %v, want bounded-unsat", res.Outcome)
	}
}

func TestCertifiedSatIsVerified(t *testing.T) {
	res := runOver(t, `
		(set-logic QF_LIA)
		(declare-fun x () Int)
		(assert (>= x 3))
		(assert (<= x 7))
		(assert (= (+ x x) 10))
		(check-sat)`)
	if res.Status != status.Sat || res.Outcome != pipeline.OutcomeVerified {
		t.Fatalf("status = %v outcome = %v, want verified sat", res.Status, res.Outcome)
	}
	if res.Direction != pipeline.DirExact {
		t.Errorf("direction = %v, want exact", res.Direction)
	}
}

func TestLinearizedSignUnsat(t *testing.T) {
	// Sum of squares below a negative constant: refuted by the square
	// axioms alone through the linear fallback. The verdict is sound under
	// DirOver even though the abstraction dropped real multiplication.
	res := runOver(t, `
		(set-logic QF_NIA)
		(declare-fun x () Int)
		(declare-fun y () Int)
		(assert (< (+ (* x x) (* y y)) (- 3)))
		(check-sat)`)
	if res.Status != status.Unsat {
		t.Fatalf("status = %v, want unsat (outcome %v, dir %v)", res.Status, res.Outcome, res.Direction)
	}
	if res.Direction != pipeline.DirOver {
		t.Errorf("direction = %v, want over", res.Direction)
	}
}

func TestLinearizedRealSignUnsat(t *testing.T) {
	res := runOver(t, `
		(set-logic QF_NRA)
		(declare-fun a () Real)
		(assert (< (* a a) (- 1)))
		(check-sat)`)
	if res.Status != status.Unsat {
		t.Fatalf("status = %v, want unsat (outcome %v, dir %v)", res.Status, res.Outcome, res.Direction)
	}
	if res.Direction != pipeline.DirOver {
		t.Errorf("direction = %v, want over", res.Direction)
	}
}

func TestOverApproxSatNeverTrusted(t *testing.T) {
	// The abstraction is sat (product vars are underconstrained) but the
	// original is unsat-by-parity; the over leg must not answer sat unless
	// the model verifies on the original, so it reverts to unknown here
	// rather than flipping a verdict.
	res := runOver(t, `
		(set-logic QF_NIA)
		(declare-fun x () Int)
		(assert (>= x 2))
		(assert (<= x 5))
		(assert (= (* x x) 7))
		(check-sat)`)
	if res.Status == status.Sat {
		t.Fatalf("over leg answered sat on an unsat instance (outcome %v)", res.Outcome)
	}
}

func TestLiteralMultiplicationStaysLinear(t *testing.T) {
	// 3*x and x*4 are linear: no products abstracted, the certificate
	// path handles it directly.
	res := runOver(t, `
		(set-logic QF_LIA)
		(declare-fun x () Int)
		(assert (>= x 0))
		(assert (<= x 9))
		(assert (> (* 3 x) (* x 4)))
		(check-sat)`)
	if res.Status != status.Unsat {
		t.Fatalf("status = %v, want sound unsat for 3x > 4x with x in [0,9]", res.Status)
	}
	if res.Direction != pipeline.DirExact {
		t.Errorf("direction = %v, want exact (no abstraction should have happened)", res.Direction)
	}
}

func TestDeepProductChain(t *testing.T) {
	// x*y*z*x binarizes through nested fresh products without error; the
	// instance is unbounded and truly nonlinear, so the leg either proves
	// unsat soundly or reverts — it must not crash or claim sat.
	res := runOver(t, `
		(set-logic QF_NIA)
		(declare-fun x () Int)
		(declare-fun y () Int)
		(declare-fun z () Int)
		(assert (< (+ (* x y z x) (* x x)) (- 1000000)))
		(assert (> (* x y z x) 0))
		(check-sat)`)
	if res.Status == status.Sat {
		t.Fatalf("unverified sat from the over leg: %+v", res)
	}
}

func TestMixedSortsRevertCleanly(t *testing.T) {
	res := runOver(t, `
		(set-logic QF_NIRA)
		(declare-fun i () Int)
		(declare-fun r () Real)
		(assert (> i 0))
		(assert (> r 0.5))
		(check-sat)`)
	if res.Status != status.Unknown || res.Outcome != pipeline.OutcomeTransformFailed {
		t.Fatalf("mixed sorts: status = %v outcome = %v, want unknown/transform-failed", res.Status, res.Outcome)
	}
}

func TestLinearRealRevertsWithoutAbstraction(t *testing.T) {
	// Pure linear real constraints have no exact bounded sort; the over
	// leg declines instead of pretending FP is exact.
	res := runOver(t, `
		(set-logic QF_LRA)
		(declare-fun r () Real)
		(assert (> r 0.5))
		(assert (< r 0.25))
		(check-sat)`)
	if res.Outcome != pipeline.OutcomeTransformFailed {
		t.Fatalf("outcome = %v, want transform-failed", res.Outcome)
	}
}

func TestIntDivModNeverCertified(t *testing.T) {
	// div's bitvector counterpart truncates where SMT-LIB rounds toward
	// negative infinity, so certification must refuse even fully bounded
	// instances that use it.
	res := runOver(t, `
		(set-logic QF_LIA)
		(declare-fun x () Int)
		(assert (>= x (- 7)))
		(assert (<= x 7))
		(assert (= (div x 2) (- 4)))
		(check-sat)`)
	if res.Status != status.Unknown {
		t.Fatalf("status = %v, want unknown (no certificate for div)", res.Status)
	}
}

func TestPapadimitriouFallback(t *testing.T) {
	// Two variables, tiny coefficients, no explicit bounds: the interval
	// path cannot bound x or y but the small-model bound fits the
	// ceiling, and 0 < x − y < 1 is a sound unsat. It has no equality, so
	// the residue pass falls through.
	res := runOver(t, `
		(set-logic QF_LIA)
		(declare-fun x () Int)
		(declare-fun y () Int)
		(assert (> (- x y) 0))
		(assert (< (- x y) 1))
		(check-sat)`)
	if res.Status != status.Unsat {
		t.Fatalf("status = %v, want sound unsat via small-model width", res.Status)
	}
	if res.Direction != pipeline.DirExact {
		t.Errorf("direction = %v, want exact", res.Direction)
	}
}

func TestPropagateDerivesTransitiveBounds(t *testing.T) {
	c := parse(t, `
		(set-logic QF_LIA)
		(declare-fun x () Int)
		(declare-fun y () Int)
		(assert (>= x 0))
		(assert (<= x 10))
		(assert (<= y (+ x 5)))
		(assert (>= y (- x 5)))
		(check-sat)`)
	y, ok := deriveIntervals(c.Vars, c.Assertions)["y"]
	if !ok {
		t.Fatal("y has no interval")
	}
	if want := interval.Of(-5, 15); y.Lo.Cmp(want.Lo) != 0 || y.Hi.Cmp(want.Hi) != 0 {
		t.Errorf("y in %v, want %v", y, want)
	}
}

// TestLeAtoms pins the normalizer's edge cases. The last three rows are
// forms poly's exact algebra accepts beyond linear term matching: a
// negated binary distinct, products that cancel and products scaled by
// zero. Each normalizes to an equivalent linear atom, so accepting them
// is sound.
func TestLeAtoms(t *testing.T) {
	for _, tc := range []struct {
		term string
		want []string // nil: rejected
	}{
		{"(<= x 3)", []string{"-3 + x <= 0"}},
		{"(< x 5)", []string{"-4 + x <= 0"}},
		{"(> x 5)", []string{"6 + -1*x <= 0"}},
		{"(>= (* 2 x) (+ y 1))", []string{"1 + -2*x + y <= 0"}},
		{"(= x y)", []string{"x + -1*y <= 0", "-1*x + y <= 0"}},
		{"(<= x y z)", []string{"x + -1*y <= 0", "y + -1*z <= 0"}},
		{"(= x y 4)", []string{"x + -1*y <= 0", "-1*x + y <= 0", "-4 + y <= 0", "4 + -1*y <= 0"}},
		{"(not (<= x 3))", []string{"4 + -1*x <= 0"}},
		{"(not (not (< x 3)))", []string{"-2 + x <= 0"}},
		{"(distinct x y)", nil},
		{"(not (= x y))", nil},
		{"(not (<= x y z))", nil},
		{"(<= (* x y) 3)", nil},
		{"(<= (div x 2) 3)", nil},
		{"(<= r 1.5)", nil},
		{"(= p q)", nil},
		{"p", nil},
		{"(not (distinct x y))", []string{"x + -1*y <= 0", "-1*x + y <= 0"}},
		{"(<= (- (* x y) (* x y)) x)", []string{"-1*x <= 0"}},
		{"(<= (* 0 x y) x)", []string{"-1*x <= 0"}},
	} {
		c := parse(t, `(declare-fun x () Int) (declare-fun y () Int) (declare-fun z () Int)
			(declare-fun r () Real) (declare-fun p () Bool) (declare-fun q () Bool)
			(assert `+tc.term+`)`)
		atoms, ok := leAtoms(c.Assertions[0])
		var got []string
		for _, a := range atoms {
			got = append(got, a.String())
		}
		if ok != (tc.want != nil) || strings.Join(got, "; ") != strings.Join(tc.want, "; ") {
			t.Errorf("leAtoms(%s) = %q, %t; want %q", tc.term, got, ok, tc.want)
		}
	}
}

func TestCertifyWidthDeterministic(t *testing.T) {
	src := `
		(set-logic QF_LIA)
		(declare-fun a () Int)
		(declare-fun b () Int)
		(declare-fun c () Int)
		(assert (>= a (- 15))) (assert (<= a 15))
		(assert (>= b (- 15))) (assert (<= b 15))
		(assert (<= c (+ a b)))
		(assert (>= c (- 100)))
		(check-sat)`
	first := -1
	for i := 0; i < 20; i++ {
		width, _, _, ok := certify(parse(t, src))
		if !ok {
			t.Fatal("certification failed")
		}
		if first == -1 {
			first = width
		} else if width != first {
			t.Fatalf("width flapped: %d then %d", first, width)
		}
	}
}

func TestDnfFriendlyDropsOnlyImplications(t *testing.T) {
	c := parse(t, `
		(set-logic QF_LIA)
		(declare-fun x () Int)
		(assert (>= x 0))
		(assert (=> (> x 5) (< x 3)))
		(check-sat)`)
	out := dnfFriendly(c)
	if len(out.Assertions) != 1 || out.Assertions[0].Op == smt.OpImplies {
		t.Fatalf("filtered assertions: %v", out.Assertions)
	}
	if again := dnfFriendly(out); again != out {
		t.Error("dnfFriendly not identity on implication-free constraints")
	}
}

func TestProductVarNamesAvoidCollisions(t *testing.T) {
	res := runOver(t, `
		(set-logic QF_NIA)
		(declare-fun _staub_mul_0 () Int)
		(declare-fun y () Int)
		(assert (< (+ (* _staub_mul_0 _staub_mul_0) (* y y)) (- 1)))
		(check-sat)`)
	if res.Status != status.Unsat {
		t.Fatalf("status = %v, want unsat despite hostile variable names", res.Status)
	}
}

func TestMetricsSnapshotAdvances(t *testing.T) {
	names := []string{
		"staub_overapprox_runs_total",
		"staub_overapprox_sound_unsat_total",
		"staub_overapprox_width_certified_total",
	}
	before := make([]int64, len(names))
	for i, name := range names {
		before[i] = metrics.Process.Counter(name, nil).Value()
	}
	runOver(t, `
		(set-logic QF_LIA)
		(declare-fun x () Int)
		(assert (>= x 0)) (assert (<= x 3)) (assert (>= x 7))
		(check-sat)`)
	for i, name := range names {
		if after := metrics.Process.Counter(name, nil).Value(); after <= before[i] {
			t.Errorf("%s did not advance: %d → %d", name, before[i], after)
		}
	}
}

func TestOverPassNamesResolve(t *testing.T) {
	names := pipeline.OverApproxPassNames(pipeline.Config{OverApprox: true})
	for _, name := range names {
		if _, ok := pipeline.Lookup(name); !ok {
			t.Errorf("pass %q not registered", name)
		}
	}
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, pipeline.PassLinearizeNIA) || !strings.Contains(joined, pipeline.PassInferApriori) {
		t.Errorf("over chain missing its passes: %v", names)
	}
}
