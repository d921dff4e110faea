package staub_test

import (
	"context"
	"math/big"
	"testing"
	"time"

	"staub"
	"staub/internal/benchgen"
	"staub/internal/pipeline"
)

const cubes855 = `
(set-logic QF_NIA)
(declare-fun x () Int)
(declare-fun y () Int)
(declare-fun z () Int)
(assert (= (+ (* x x x) (* y y y) (* z z z)) 855))
(check-sat)
`

func TestPublicAPIPipeline(t *testing.T) {
	c, err := staub.ParseScript(cubes855)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic virtual time: the budget buys a fixed amount of
	// solver work, so the verdict is identical with or without the race
	// detector's slowdown.
	res := staub.RunPipeline(c, staub.Config{Timeout: 15 * time.Second, Deterministic: true})
	if res.Outcome != staub.OutcomeVerified {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if !staub.VerifyModel(c, res.Model) {
		t.Fatal("model does not verify")
	}
	sum := new(big.Int)
	for _, n := range []string{"x", "y", "z"} {
		v := res.Model[n].Int
		cube := new(big.Int).Mul(new(big.Int).Mul(v, v), v)
		sum.Add(sum, cube)
	}
	if sum.Int64() != 855 {
		t.Errorf("cube sum = %v", sum)
	}
}

func TestPublicAPITransform(t *testing.T) {
	c, err := staub.ParseScript(cubes855)
	if err != nil {
		t.Fatal(err)
	}
	tr, root, err := staub.Transform(c, staub.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if root != 12 {
		t.Errorf("inferred root = %d, want 12", root)
	}
	if tr.Bounded.NumNodes() == 0 {
		t.Error("empty bounded constraint")
	}
}

func TestPublicAPIPortfolio(t *testing.T) {
	c, err := staub.ParseScript(`
		(declare-fun x () Int)
		(assert (> x 2))
		(assert (< x 4))
		(check-sat)`)
	if err != nil {
		t.Fatal(err)
	}
	res := staub.RunPortfolio(c, staub.Config{Timeout: 5 * time.Second})
	if res.Status != staub.Sat {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Model["x"].Int.Int64() != 3 {
		t.Errorf("x = %v, want 3", res.Model["x"].Int)
	}
}

func TestPublicAPISolveDirect(t *testing.T) {
	c, err := staub.ParseScript(`
		(declare-fun u () Real)
		(assert (< u 0.0))
		(assert (> u 1.0))
		(check-sat)`)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := staub.SolveDirect(c, staub.Config{Timeout: 2 * time.Second})
	if st != staub.Unsat {
		t.Fatalf("status = %v, want unsat", st)
	}

	// SolveDirect is the portfolio's unbounded leg, so a deterministic
	// config buys it the same work budget and the same verdict.
	insts, err := benchgen.Suite("QF_NIA", 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	var hard *benchgen.Instance
	for i := range insts {
		if insts[i].Name == "quad-hard-0010" {
			hard = &insts[i]
		}
	}
	if hard == nil {
		t.Fatal("benchgen QF_NIA seed 1 has no quad-hard-0010")
	}
	cfg := staub.Config{Timeout: 200 * time.Millisecond, Deterministic: true}
	want := pipeline.SolveOriginal(context.Background(), hard.Constraint, cfg, nil).Status
	if got, _ := staub.SolveDirect(hard.Constraint, cfg); got != want {
		t.Errorf("%s: SolveDirect = %v, SolveOriginal = %v", hard.Name, got, want)
	}
}
