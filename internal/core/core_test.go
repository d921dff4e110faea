package core

import (
	"context"
	"math/big"
	"sync/atomic"
	"testing"
	"time"

	"staub/internal/benchgen"
	"staub/internal/pipeline"
	"staub/internal/smt"
	"staub/internal/solver"
	"staub/internal/status"
)

const sumOfCubes = `
(declare-fun x () Int)
(declare-fun y () Int)
(declare-fun z () Int)
(assert (= (+ (* x x x) (* y y y) (* z z z)) 855))
(check-sat)
`

func parse(t *testing.T, src string) *smt.Constraint {
	t.Helper()
	c, err := smt.ParseScript(src)
	if err != nil {
		t.Fatalf("ParseScript: %v", err)
	}
	return c
}

func TestPipelineSumOfCubes(t *testing.T) {
	c := parse(t, sumOfCubes)
	// Deterministic: the verdict must not depend on machine speed (the
	// race detector slows the search well past a wall-clock budget).
	res := RunPipeline(context.Background(), c, Config{Timeout: 10 * time.Second, Deterministic: true}, nil)
	if res.Outcome != OutcomeVerified {
		t.Fatalf("outcome = %v, want verified", res.Outcome)
	}
	if res.Status != status.Sat {
		t.Fatalf("status = %v, want sat", res.Status)
	}
	sum := new(big.Int)
	for _, n := range []string{"x", "y", "z"} {
		v := res.Model[n].Int
		cube := new(big.Int).Mul(v, v)
		cube.Mul(cube, v)
		sum.Add(sum, cube)
	}
	if sum.Int64() != 855 {
		t.Errorf("cube sum = %v, want 855", sum)
	}
	if res.Width < 10 || res.Width > 16 {
		t.Errorf("inferred width = %d, want near the paper's 12", res.Width)
	}
}

func TestPipelineRevertsOnUnsatBounded(t *testing.T) {
	// x*x = 7 has no integer solution; the bounded constraint is unsat
	// and STAUB must revert (status unknown, not unsat).
	c := parse(t, `
		(declare-fun x () Int)
		(assert (= (* x x) 7))
		(check-sat)`)
	res := RunPipeline(context.Background(), c, Config{Timeout: 5 * time.Second}, nil)
	if res.Outcome != OutcomeBoundedUnsat {
		t.Fatalf("outcome = %v, want bounded-unsat", res.Outcome)
	}
	if res.Status != status.Unknown {
		t.Fatalf("status = %v, want unknown (revert)", res.Status)
	}
}

func TestPipelineRealConstraint(t *testing.T) {
	c := parse(t, `
		(declare-fun x () Real)
		(assert (> x 1.5))
		(assert (< (* x x) 4.0))
		(check-sat)`)
	res := RunPipeline(context.Background(), c, Config{Timeout: 10 * time.Second}, nil)
	if res.Outcome != OutcomeVerified {
		t.Fatalf("outcome = %v, want verified (%v)", res.Outcome, res)
	}
	x := res.Model["x"].Rat
	if x.Cmp(big.NewRat(3, 2)) <= 0 {
		t.Errorf("x = %v, want > 3/2", x)
	}
	sq := new(big.Rat).Mul(x, x)
	if sq.Cmp(big.NewRat(4, 1)) >= 0 {
		t.Errorf("x^2 = %v, want < 4", sq)
	}
}

func TestPipelineFixedWidthTooSmall(t *testing.T) {
	// With a fixed 8-bit width, 855 wraps and cubes overflow; the guard
	// assertions make the bounded constraint unsat-or-unverifiable, so
	// the pipeline must NOT report a wrong sat for a value that fails
	// verification.
	c := parse(t, sumOfCubes)
	res := RunPipeline(context.Background(), c, Config{Timeout: 5 * time.Second, FixedWidth: 8}, nil)
	if res.Outcome == OutcomeVerified {
		// A verified model is acceptable only if genuinely correct.
		sum := new(big.Int)
		for _, n := range []string{"x", "y", "z"} {
			v := res.Model[n].Int
			cube := new(big.Int).Mul(v, v)
			cube.Mul(cube, v)
			sum.Add(sum, cube)
		}
		if sum.Int64() != 855 {
			t.Fatalf("verified a wrong model: cube sum %v", sum)
		}
	}
	if res.Status == status.Unsat {
		t.Fatalf("pipeline must never report unsat")
	}
}

func TestBoundRefinementRescuesTightWidths(t *testing.T) {
	// x² - y² = 201 with x > 90 is solvable only by x=101, y=100 (the
	// factor pair 1×201); the squares need 15 bits while the largest
	// constant suggests ~11, so the first round's guards make the bounded
	// constraint unsat. One width-doubling refinement round (§6.2)
	// rescues it.
	c := parse(t, `
		(declare-fun x () Int)
		(declare-fun y () Int)
		(assert (= (- (* x x) (* y y)) 201))
		(assert (> x 90))
		(check-sat)`)
	plain := RunPipeline(context.Background(), c, Config{Timeout: 20 * time.Second, Deterministic: true}, nil)
	if plain.Outcome != OutcomeBoundedUnsat {
		t.Fatalf("without refinement: outcome = %v, want bounded-unsat", plain.Outcome)
	}
	refined := RunPipeline(context.Background(), c, Config{Timeout: 30 * time.Second, Deterministic: true, RefineRounds: 2}, nil)
	if refined.Outcome != OutcomeVerified {
		t.Fatalf("with refinement: outcome = %v, want verified (width %d, rounds %d)",
			refined.Outcome, refined.Width, refined.Refined)
	}
	if refined.Refined == 0 {
		t.Error("expected at least one refinement round")
	}
	if x := refined.Model["x"].Int.Int64(); x != 101 {
		t.Errorf("x = %d, want 101", x)
	}
	if y := refined.Model["y"].Int.Int64(); y != 100 && y != -100 {
		t.Errorf("y = %d, want ±100", y)
	}
}

func TestPortfolioAgreesWithDirectSolve(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want status.Status
	}{
		{"sat-linear", `(declare-fun x () Int)(assert (> x 5))(check-sat)`, status.Sat},
		{"unsat-linear", `(declare-fun x () Int)(assert (> x 5))(assert (< x 5))(check-sat)`, status.Unsat},
		{"sat-nonlinear", `(declare-fun x () Int)(assert (= (* x x) 49))(check-sat)`, status.Sat},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := parse(t, tc.src)
			res := RunPortfolio(context.Background(), c, Config{Timeout: 5 * time.Second})
			if res.Status != tc.want {
				t.Fatalf("portfolio status = %v, want %v", res.Status, tc.want)
			}
			if res.Status == status.Sat && !solver.VerifyModel(c, res.Model) {
				t.Fatalf("portfolio model does not satisfy the constraint")
			}
		})
	}
}

// TestPortfolioCancelsLosingLegPromptly races a benchgen nra-unsat
// instance, which the unbounded leg refutes at once and the sequential
// leg can only lose. The legs are ordered by hooks, not by the CPU: the
// sequential leg waits at its start, and the unbounded leg raises its
// interrupt at its verdict, so the losing leg is running when the
// interrupt arrives on every run. Its bounded FP solve must then stop
// within a node or two and never reach its CDCL stage, which would refute
// the bounded form in a few units: it ends bounded-unknown, interrupted,
// not bounded-unsat on its own. Polling the interrupt every 512 nodes let
// it burn 512*40 work units however early the race was decided. The
// decided race also records one cancellation time.
func TestPortfolioCancelsLosingLegPromptly(t *testing.T) {
	insts, err := benchgen.Suite("QF_NRA", 48, 1)
	if err != nil {
		t.Fatal(err)
	}
	var c *smt.Constraint
	for _, inst := range insts {
		if inst.Family == "nra-unsat" && len(inst.Constraint.Vars) > 1 {
			c = inst.Constraint
			break
		}
	}
	if c == nil {
		t.Fatal("no multi-variable nra-unsat instance in the suite")
	}
	legs := portfolioLegs(context.Background(), c, Config{Timeout: 5 * time.Second}.WithDefaults())
	seqFlag, verdict := make(chan *atomic.Bool, 1), make(chan struct{})
	unbounded, seq := legs[legUnbounded].run, legs[legSequential].run
	legs[legUnbounded].run = func(interrupt *atomic.Bool) PipelineResult {
		r := unbounded(interrupt)
		if r.Status != status.Unknown {
			(<-seqFlag).Store(true)
		}
		close(verdict)
		return r
	}
	legs[legSequential].run = func(interrupt *atomic.Bool) PipelineResult {
		seqFlag <- interrupt
		<-verdict
		return seq(interrupt)
	}
	before := portfolioCancel.Count()
	results, winner := race(legs)
	if winner != legUnbounded || results[legUnbounded].Status != status.Unsat {
		t.Fatalf("winner %d with %v, want unsat from the unbounded leg", winner, results[legUnbounded].Status)
	}
	lost := results[legSequential]
	if lost.Outcome != pipeline.OutcomeBoundedUnknown {
		t.Errorf("losing sequential leg ended %s, want %s: it finished instead of being interrupted", lost.Outcome, pipeline.OutcomeBoundedUnknown)
	}
	if lost.SolveWork >= 512*40 {
		t.Errorf("losing sequential leg spent %d solve work units, want < %d", lost.SolveWork, 512*40)
	}
	if got := portfolioCancel.Count(); got != before+1 {
		t.Errorf("cancel histogram count %d → %d, want one observation", before, got)
	}
}

func TestPortfolioWinComesFromSTAUBLeg(t *testing.T) {
	if testing.Short() {
		t.Skip("timing race")
	}
	// The quad-hard shape: enumeration cannot finish within the budget,
	// the pipeline can, so the portfolio answer must come from STAUB.
	c := parse(t, `
		(declare-fun a () Int)
		(declare-fun b () Int)
		(declare-fun c () Int)
		(declare-fun d () Int)
		(assert (= (+ (* a a) (* b b) (* c c) (* d d) (* a b) (* c d)) 1604))
		(assert (> (+ a b) 30))
		(assert (> (+ c d) 25))
		(check-sat)`)
	res := RunPortfolio(context.Background(), c, Config{Timeout: 20 * time.Second, Deterministic: true})
	if res.Status != status.Sat {
		t.Fatalf("status = %v", res.Status)
	}
	if !res.FromSTAUB {
		t.Skip("unbounded solver won the race on this machine; acceptable")
	}
	if !solver.VerifyModel(c, res.Model) {
		t.Fatal("model fails verification")
	}
}

// TestPortfolioCountsLegWork races x² + y² = 1000003 (3 mod 4) without
// the over leg under a small budget: the unbounded leg runs out of it
// and the sequential leg's bounded-unsat decides nothing, so no leg wins
// and each leg's work lands in its won="false" series.
func TestPortfolioCountsLegWork(t *testing.T) {
	read := func() map[string][2]int64 {
		out := map[string][2]int64{}
		for leg, cs := range portfolioLegWork {
			out[leg] = [2]int64{cs[0].Value(), cs[1].Value()}
		}
		return out
	}
	before := read()
	c := parse(t, `(declare-fun x () Int) (declare-fun y () Int)
		(assert (= (+ (* x x) (* y y)) 1000003)) (check-sat)`)
	res := RunPortfolio(context.Background(), c, Config{Timeout: 20 * time.Millisecond, Deterministic: true})
	if res.Status != status.Unknown {
		t.Fatalf("status %v, want unknown", res.Status)
	}
	after := read()
	for leg, b := range before {
		lost, won := after[leg][0]-b[0], after[leg][1]-b[1]
		if won != 0 {
			t.Errorf("%s: won=\"true\" rose by %d in a race nobody won", leg, won)
		}
		switch leg {
		case "unbounded":
			if lost <= 0 {
				t.Errorf("unbounded: won=\"false\" rose by %d, want its solver work", lost)
			}
		case "staub":
			if lost != res.Pipeline.SolveWork || lost <= 0 {
				t.Errorf("staub: won=\"false\" rose by %d, want its SolveWork %d", lost, res.Pipeline.SolveWork)
			}
		default:
			if lost != 0 {
				t.Errorf("%s: won=\"false\" rose by %d, but the leg did not run", leg, lost)
			}
		}
	}
}

func TestFixedFPSortShapes(t *testing.T) {
	cases := []struct {
		width  int
		wantEB int
		wantSB int
	}{
		{16, 5, 11},
		{32, 8, 24},
		{64, 11, 53},
	}
	for _, tc := range cases {
		s := FixedFPSort(tc.width)
		if s.EB != tc.wantEB || s.SB != tc.wantSB {
			t.Errorf("FixedFPSort(%d) = (%d, %d), want (%d, %d)",
				tc.width, s.EB, s.SB, tc.wantEB, tc.wantSB)
		}
	}
	// Non-standard widths still produce valid sorts.
	for _, w := range []int{8, 12, 20, 24, 48} {
		s := FixedFPSort(w)
		if s.Kind != smt.KindFloat || s.EB < 2 || s.SB < 2 {
			t.Errorf("FixedFPSort(%d) = %v invalid", w, s)
		}
	}
}

func TestOutcomeStrings(t *testing.T) {
	want := map[Outcome]string{
		OutcomeVerified:           "verified",
		OutcomeBoundedUnsat:       "bounded-unsat",
		OutcomeSemanticDifference: "semantic-difference",
		OutcomeBoundedUnknown:     "bounded-unknown",
		OutcomeTransformFailed:    "transform-failed",
	}
	for o, s := range want {
		if o.String() != s {
			t.Errorf("%d.String() = %q, want %q", o, o.String(), s)
		}
	}
}

func TestTransformFailedOnMixedTheories(t *testing.T) {
	c := smt.NewConstraint("")
	c.MustDeclare("i", smt.IntSort)
	c.MustDeclare("r", smt.RealSort)
	res := RunPipeline(context.Background(), c, Config{Timeout: time.Second}, nil)
	if res.Outcome != OutcomeTransformFailed {
		t.Errorf("outcome = %v, want transform-failed", res.Outcome)
	}
}

func TestPipelineSpeedsUpHardNonlinear(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	// A quadratic with cross terms whose solutions are forced (by the
	// multi-variable sum bounds, which the enumerator cannot contract
	// into its box) to have large coordinates: slow for the unbounded
	// deepening solver, fast after arbitrage — the paper's headline
	// effect. Planted solution: a=17, b=19, c=14, d=15.
	c := parse(t, `
		(declare-fun a () Int)
		(declare-fun b () Int)
		(declare-fun c () Int)
		(declare-fun d () Int)
		(assert (= (+ (* a a) (* b b) (* c c) (* d d) (* a b) (* c d)) 1604))
		(assert (> (+ a b) 30))
		(assert (> (+ c d) 25))
		(check-sat)`)

	pipe := RunPipeline(context.Background(), c, Config{Timeout: 20 * time.Second, Deterministic: true}, nil)
	if pipe.Outcome != OutcomeVerified {
		t.Fatalf("pipeline outcome = %v, want verified", pipe.Outcome)
	}

	budget := 2 * pipe.Total
	if budget < 100*time.Millisecond {
		budget = 100 * time.Millisecond
	}
	// Give the unbounded leg the same deterministic accounting so the
	// comparison is machine-independent.
	orig := pipeline.SolveOriginal(context.Background(), c, Config{Timeout: budget, Deterministic: true}, nil)
	if orig.Status == status.Unknown {
		t.Logf("arbitrage win: original timed out within %v; STAUB finished in %v", budget, pipe.Total)
		return
	}
	if origTime := solver.VirtualDuration(orig.Work); origTime <= pipe.Total {
		t.Errorf("expected STAUB (%v) to beat the unbounded solver (%v)", pipe.Total, origTime)
	}
}
