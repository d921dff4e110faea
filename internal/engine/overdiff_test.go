package engine_test

import (
	"context"
	"math"
	"testing"
	"time"

	"staub/internal/benchgen"
	"staub/internal/core"
	"staub/internal/engine"
	"staub/internal/pipeline"
	"staub/internal/smt"
	"staub/internal/solver"
	"staub/internal/status"
)

// TestOverApproxDifferential is the soundness gate for the
// over-approximation chain: across every logic's generated suite, each
// verdict the over pipeline dares to call definitive is replayed against
// the unbounded oracle at a far more generous budget. An over-approx
// unsat contradicted by an oracle sat — or a verified sat contradicted
// by an oracle unsat — is a soundness bug, not a flake, so any
// disagreement fails hard. `make overapprox-diff` runs this under -race.
func TestOverApproxDifferential(t *testing.T) {
	counts := map[string]int{"QF_NIA": 8, "QF_LIA": 8, "QF_NRA": 4, "QF_LRA": 4}
	if testing.Short() {
		counts = map[string]int{"QF_NIA": 4, "QF_LIA": 4, "QF_NRA": 2, "QF_LRA": 2}
	}
	var jobs []engine.Job
	var names []string
	for _, logic := range benchgen.Logics() {
		insts, err := benchgen.Suite(logic, counts[logic], 11)
		if err != nil {
			t.Fatal(err)
		}
		for _, inst := range insts {
			jobs = append(jobs, engine.Job{Kind: engine.KindPipeline, Constraint: inst.Constraint,
				Config: core.Config{Timeout: 500 * time.Millisecond, Deterministic: true, OverApprox: true}})
			names = append(names, logic+"/"+inst.Name)
		}
	}
	ctx := context.Background()
	results := engine.New(0, engine.NewCache()).Run(ctx, jobs)

	decided := 0
	for i, r := range results {
		p := r.Pipeline
		if p.Status == status.Unknown {
			continue
		}
		decided++
		// A definitive unsat may only come out of a chain that never
		// shrank the solution set.
		if p.Status == status.Unsat && p.Direction == pipeline.DirUnder {
			t.Errorf("%s: unsat verdict from an under-approximating chain (outcome %v)", names[i], p.Outcome)
		}
		oracle := engine.ExecuteJob(ctx, engine.Job{
			Kind: engine.KindSolve, Constraint: jobs[i].Constraint,
			Config: core.Config{Profile: solver.Prima, Timeout: 5 * time.Second, Deterministic: true},
		})
		switch p.Status {
		case status.Unsat:
			if oracle.Solve.Status == status.Sat {
				t.Errorf("%s: over-approx unsat but the unbounded oracle found a model (direction %v, outcome %v)",
					names[i], p.Direction, p.Outcome)
			}
		case status.Sat:
			if p.Outcome != core.OutcomeVerified {
				t.Errorf("%s: sat verdict without verification (outcome %v)", names[i], p.Outcome)
			}
			if oracle.Solve.Status == status.Unsat {
				t.Errorf("%s: verified sat but the unbounded oracle proved unsat", names[i])
			}
		}
	}
	if decided == 0 {
		t.Error("over pipeline decided nothing across the whole suite — the gate tested nothing")
	}
	t.Logf("over differential: %d/%d decided and oracle-checked", decided, len(results))
}

// refutationCorpus holds constraints that are unsat by construction; each
// comment states why.
var refutationCorpus = []struct{ name, src string }{
	// Sum of squares below a negative constant: the square axioms the
	// linearizer instantiates refute it without touching the backend.
	{"neg-square-sum", `(set-logic QF_NIA)
		(declare-fun x () Int)(declare-fun y () Int)(declare-fun z () Int)
		(assert (< (+ (* x x) (* y y) (* z z)) (- 3)))(check-sat)`},
	// A square strictly between consecutive squares: 90 < x^2 < 100
	// forces 9 < x < 10 over the integers.
	{"square-gap", `(set-logic QF_NIA)
		(declare-fun x () Int)
		(assert (> x 0))(assert (<= x 12))
		(assert (> (* x x) 90))(assert (< (* x x) 100))(check-sat)`},
	// Parity: an even linear form never hits an odd constant.
	{"parity-odd", `(set-logic QF_LIA)
		(declare-fun x () Int)(declare-fun y () Int)
		(assert (>= x 0))(assert (<= x 4000))
		(assert (>= y 0))(assert (<= y 4000))
		(assert (= (+ (* 2 x) (* 4 y)) 4001))(check-sat)`},
	// GCD obstruction: 6x + 10y = 15 has no integer solutions.
	{"gcd-gap", `(set-logic QF_LIA)
		(declare-fun x () Int)(declare-fun y () Int)
		(assert (>= x 0))(assert (<= x 5000))
		(assert (>= y 0))(assert (<= y 5000))
		(assert (= (+ (* 6 x) (* 10 y)) 15))(check-sat)`},
	// Market-split style 0/1 feasibility: all coefficients are odd, so a
	// subset sum is even only for even-size subsets — and the smallest
	// nonempty even-size sum is 17+29 = 46, putting 44 off the lattice.
	{"market-split", `(set-logic QF_LIA)
		(declare-fun a () Int)(declare-fun b () Int)(declare-fun c () Int)
		(declare-fun d () Int)(declare-fun e () Int)(declare-fun f () Int)
		(declare-fun g () Int)(declare-fun h () Int)(declare-fun i () Int)
		(declare-fun j () Int)
		(assert (and (>= a 0) (<= a 1) (>= b 0) (<= b 1) (>= c 0) (<= c 1)
		             (>= d 0) (<= d 1) (>= e 0) (<= e 1) (>= f 0) (<= f 1)
		             (>= g 0) (<= g 1) (>= h 0) (<= h 1) (>= i 0) (<= i 1)
		             (>= j 0) (<= j 1)))
		(assert (= (+ (* 193 a) (* 167 b) (* 131 c) (* 109 d) (* 83 e)
		             (* 71 f) (* 53 g) (* 41 h) (* 29 i) (* 17 j)) 44))
		(check-sat)`},
	// Pigeonhole as integer intervals: five variables in [1,4], pairwise
	// distinct.
	{"pigeonhole-5x4", `(set-logic QF_LIA)
		(declare-fun p1 () Int)(declare-fun p2 () Int)(declare-fun p3 () Int)
		(declare-fun p4 () Int)(declare-fun p5 () Int)
		(assert (and (>= p1 1) (<= p1 4) (>= p2 1) (<= p2 4) (>= p3 1) (<= p3 4)
		             (>= p4 1) (<= p4 4) (>= p5 1) (<= p5 4)))
		(assert (distinct p1 p2 p3 p4 p5))(check-sat)`},
	// A bounded quadratic squeezed under its own minimum: y = x^2 with
	// x in [3,20] forces y >= 9.
	{"quad-under-min", `(set-logic QF_NIA)
		(declare-fun x () Int)(declare-fun y () Int)
		(assert (>= x 3))(assert (<= x 20))
		(assert (= y (* x x)))(assert (< y 9))(check-sat)`},
	// Tight alldifferent-sum: three distinct values in [0,2] must sum
	// to 0+1+2 = 3.
	{"distinct-sum", `(set-logic QF_LIA)
		(declare-fun u () Int)(declare-fun v () Int)(declare-fun w () Int)
		(assert (and (>= u 0) (<= u 2) (>= v 0) (<= v 2) (>= w 0) (<= w 2)))
		(assert (distinct u v w))
		(assert (= (+ u v w) 4))(check-sat)`},
}

// TestOverApproxRefutations measures what the over-approximation leg buys
// on refutation-heavy input. Each row of refutationCorpus is solved by the
// unbounded oracle and by the over chain (linearize-nia →
// infer-apriori-bounds → bounded solve) under the same deterministic
// budget. Every row is unsat, so either leg answering sat is a soundness
// bug; a second over-chain run must reproduce status, direction and cost
// exactly; and the unsat-side geomean speedup must stay at least 1.3x
// (66.87x when the gate was set). A row's with-over cost follows the
// portfolio: min(oracle, over) when the chain refuted it, the oracle's
// cost otherwise. An oracle that runs out of budget is charged the whole
// budget, so that row's speedup is a lower bound.
func TestOverApproxRefutations(t *testing.T) {
	const timeout = 1500 * time.Millisecond
	ctx := context.Background()
	over := func(c *smt.Constraint) (status.Status, pipeline.Direction, time.Duration) {
		p := engine.ExecuteJob(ctx, engine.Job{Kind: engine.KindPipeline, Constraint: c,
			Config: core.Config{Timeout: timeout, Deterministic: true, OverApprox: true}}).Pipeline
		return p.Status, p.Direction, min(p.Total, timeout)
	}
	var logSum float64
	for _, inst := range refutationCorpus {
		c, err := smt.ParseScript(inst.src)
		if err != nil {
			t.Fatalf("%s: %v", inst.name, err)
		}
		oracle := engine.ExecuteJob(ctx, engine.Job{Kind: engine.KindSolve, Constraint: c,
			Config: core.Config{Profile: solver.Prima, Timeout: timeout, Deterministic: true}}).Solve
		oracleCost := timeout
		if oracle.Status != status.Unknown {
			oracleCost = min(solver.VirtualDuration(oracle.Work), timeout)
		}
		st, dir, cost := over(c)
		if oracle.Status == status.Sat || st == status.Sat {
			t.Errorf("%s: sat on an unsat instance (oracle %v, over %v)", inst.name, oracle.Status, st)
		}
		if st2, dir2, cost2 := over(c); st2 != st || dir2 != dir || cost2 != cost {
			t.Errorf("%s: over chain drifted across identical runs: %v/%v/%v then %v/%v/%v",
				inst.name, st, dir, cost, st2, dir2, cost2)
		}
		withOver := oracleCost
		if st == status.Unsat {
			withOver = min(oracleCost, cost)
		}
		logSum += math.Log(float64(oracleCost) / float64(max(withOver, time.Microsecond)))
	}
	geomean := math.Exp(logSum / float64(len(refutationCorpus)))
	if geomean < 1.3 {
		t.Errorf("unsat-side geomean speedup %.2fx below the 1.3x gate", geomean)
	}
	t.Logf("unsat-side geomean speedup %.2fx over %d rows", geomean, len(refutationCorpus))
}
