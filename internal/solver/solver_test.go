package solver

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

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

func TestDispatchByKind(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		engine string
		want   status.Status
	}{
		{"int", `(declare-fun x () Int)(assert (> x 3))(check-sat)`, "intsolver", status.Sat},
		{"real", `(declare-fun x () Real)(assert (> x 0.5))(check-sat)`, "realsolver", status.Sat},
		{"bv", `(declare-fun v () (_ BitVec 8))(assert (bvsgt v (_ bv3 8)))(check-sat)`, "bitblast", status.Sat},
		{"fp", `(declare-fun f () (_ FloatingPoint 4 6))(assert (fp.gt f (fp #b0 #b0111 #b00000)))(check-sat)`, "fpsearch", status.Sat},
		{"ground-sat", `(assert (= 1 1))(check-sat)`, "ground", status.Sat},
		{"ground-unsat", `(assert (= 1 2))(check-sat)`, "ground", status.Unsat},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := parse(t, tc.src)
			r := SolveTimeout(context.Background(), c, 5*time.Second, Prima)
			if r.Engine != tc.engine {
				t.Errorf("engine = %q, want %q", r.Engine, tc.engine)
			}
			if r.Status != tc.want {
				t.Errorf("status = %v, want %v", r.Status, tc.want)
			}
			if r.Status == status.Sat && !VerifyModel(c, r.Model) {
				t.Error("model fails verification")
			}
		})
	}
}

// TestVariableNamesAreNotMonomials: '*' is a legal symbol character and
// || a legal (empty) quoted symbol, so the unbounded engines must keep a
// variable named x*y apart from the product x·y, and one named "" apart
// from the constant 1. Each constraint is sat with x = y = 1 and the
// named variable = 5.
func TestVariableNamesAreNotMonomials(t *testing.T) {
	for _, tc := range []struct {
		logic, sort, five, one string
		product                bool
	}{
		{"QF_LIA", "Int", "5", "1", false},
		{"QF_NIA", "Int", "5", "1", true},
		{"QF_NRA", "Real", "5.0", "1.0", true},
	} {
		for _, name := range []string{"x*y", ""} {
			src := fmt.Sprintf(`(set-logic %[1]s)
				(declare-fun x () %[2]s) (declare-fun y () %[2]s) (declare-fun |%[3]s| () %[2]s)
				(assert (= |%[3]s| %[4]s)) (assert (= x %[5]s)) (assert (= y %[5]s))`,
				tc.logic, tc.sort, name, tc.five, tc.one)
			if tc.product {
				src += fmt.Sprintf("(assert (= (* x y) %s))", tc.one)
			}
			c := parse(t, src+"(check-sat)")
			r := Solve(c, Options{WorkBudget: WorkBudgetFor(2 * time.Second), Deadline: time.Now().Add(30 * time.Second)})
			if r.Status != status.Sat || !VerifyModel(c, r.Model) {
				t.Errorf("%s, variable %q: %s answered %v (model verifies: %t), want a verified sat",
					tc.logic, name, r.Engine, r.Status, r.Status == status.Sat && VerifyModel(c, r.Model))
			}
		}
	}
}

func TestClassifyConstraint(t *testing.T) {
	mixed := smt.NewConstraint("")
	mixed.MustDeclare("i", smt.IntSort)
	mixed.MustDeclare("r", smt.RealSort)
	if got := ClassifyConstraint(mixed); got != KindMixed {
		t.Errorf("mixed = %v", got)
	}
	boolOnly := smt.NewConstraint("")
	boolOnly.MustDeclare("p", smt.BoolSort)
	if got := ClassifyConstraint(boolOnly); got != KindBool {
		t.Errorf("bool = %v", got)
	}
}

func TestBoolConstraintViaSAT(t *testing.T) {
	c := parse(t, `
		(declare-fun p () Bool)
		(declare-fun q () Bool)
		(assert (or p q))
		(assert (not p))
		(check-sat)`)
	r := SolveTimeout(context.Background(), c, 5*time.Second, Prima)
	if r.Status != status.Sat {
		t.Fatalf("status = %v", r.Status)
	}
	if !r.Model["q"].Bool || r.Model["p"].Bool {
		t.Errorf("model = %v, want p=false q=true", r.Model)
	}
}

func TestInterruptStopsSolve(t *testing.T) {
	c := parse(t, `
		(declare-fun x () Int)
		(declare-fun y () Int)
		(declare-fun z () Int)
		(assert (= (+ (* x x x) (* y y y) (* z z z)) 999983))
		(check-sat)`)
	var flag atomic.Bool
	done := make(chan Result, 1)
	go func() {
		done <- Solve(c, Options{Deadline: time.Now().Add(time.Minute), Interrupt: &flag})
	}()
	time.Sleep(30 * time.Millisecond)
	flag.Store(true)
	select {
	case r := <-done:
		if r.Status == status.Unsat {
			t.Errorf("interrupted solve returned unsat")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("interrupt not honored within 10s")
	}
}

func TestProfilesBothWork(t *testing.T) {
	c := parse(t, `(declare-fun x () Int)(assert (= (* x x) 64))(check-sat)`)
	for _, p := range []Profile{Prima, Secunda} {
		r := SolveTimeout(context.Background(), c, 5*time.Second, p)
		if r.Status != status.Sat {
			t.Errorf("%v: status = %v", p, r.Status)
		}
	}
}

// TestParseProfileRoundTrip: ParseProfile inverts String for every
// profile, maps the empty name to Prima, and rejects names it does not
// know instead of falling back to Prima.
func TestParseProfileRoundTrip(t *testing.T) {
	for _, p := range []Profile{Prima, Secunda} {
		got, err := ParseProfile(p.String())
		if err != nil || got != p {
			t.Errorf("ParseProfile(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	if got, err := ParseProfile(""); err != nil || got != Prima {
		t.Errorf(`ParseProfile("") = %v, %v; want prima`, got, err)
	}
	for _, name := range []string{"z3", "Prima", "secunda "} {
		if _, err := ParseProfile(name); err == nil {
			t.Errorf("ParseProfile(%q) accepted an unknown profile", name)
		}
	}
}

func TestFormatModelDeterministic(t *testing.T) {
	c := parse(t, `
		(declare-fun b () Int)
		(declare-fun a () Int)
		(assert (= a 1))
		(assert (= b 2))
		(check-sat)`)
	r := SolveTimeout(context.Background(), c, 5*time.Second, Prima)
	if r.Status != status.Sat {
		t.Fatal(r.Status)
	}
	got := FormatModel(c, r.Model)
	want := "a = 1\nb = 2\n"
	if got != want {
		t.Errorf("FormatModel = %q, want %q", got, want)
	}
}

// TestFPEqualityNaNSign: (fp.neg NaN) is NaN, since the theory has one
// NaN, so the first script is unsat (x = 0 makes x/x NaN) and must not
// come back sat, and the second is sat.
func TestFPEqualityNaNSign(t *testing.T) {
	c := parse(t, `
		(declare-fun x () (_ FloatingPoint 8 24))
		(assert (fp.eq x (fp #b0 #b00000000 #b00000000000000000000000)))
		(assert (not (= (fp.neg (fp.div RNE x x)) (fp.div RNE x x))))
		(check-sat)`)
	if r := Solve(c, Options{WorkBudget: 40_000, Profile: Prima}); r.Status == status.Sat {
		t.Errorf("negated-NaN script: status sat with model %v, want not sat", r.Model)
	}
	c = parse(t, `(assert (= (fp.neg (_ NaN 8 24)) (_ NaN 8 24)))(check-sat)`)
	if r := Solve(c, Options{WorkBudget: 40_000, Profile: Prima}); r.Status != status.Sat {
		t.Errorf("(= (fp.neg NaN) NaN): status %v, want sat", r.Status)
	}
}
