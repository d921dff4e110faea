package core

import (
	"context"
	"testing"
	"time"

	"staub/internal/pipeline"
	"staub/internal/solver"
	"staub/internal/status"
)

// refinementCorpus is the differential corpus: integer constraints whose
// refinement behaviour spans verified-at-round-0, rescued-by-widening,
// and unsat-at-every-width.
var refinementCorpus = []struct {
	name string
	src  string
}{
	{"verified-round0", `
		(declare-fun x () Int)
		(assert (= (* x x) 49))
		(check-sat)`},
	{"widened-square-diff", `
		(declare-fun x () Int)
		(declare-fun y () Int)
		(assert (= (- (* x x) (* y y)) 201))
		(assert (> x 90))
		(check-sat)`},
	{"widened-square", `
		(declare-fun x () Int)
		(assert (= (* x x) 3249))
		(assert (> x 50))
		(check-sat)`},
	{"unsat-every-width", `
		(declare-fun x () Int)
		(assert (= (* x x) 7))
		(check-sat)`},
	{"linear-sat", `
		(declare-fun a () Int)
		(declare-fun b () Int)
		(assert (= (+ (* a 3) b) 100))
		(assert (> b 40))
		(check-sat)`},
	{"cubes", sumOfCubes},
}

// TestRefinementDifferentialIncrementalVsFresh runs every corpus
// instance through both refinement loops — the incremental session and
// the fresh per-round reference — and requires identical outcomes and
// statuses, with any verified model satisfying the original constraint.
// `make check` runs this under the race detector.
func TestRefinementDifferentialIncrementalVsFresh(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{Timeout: 20 * time.Second, Deterministic: true, RefineRounds: 3}},
		{"hints", Config{Timeout: 20 * time.Second, Deterministic: true, RefineRounds: 3, RangeHints: true}},
	}
	for _, tc := range refinementCorpus {
		for _, cc := range configs {
			t.Run(tc.name+"/"+cc.name, func(t *testing.T) {
				t.Parallel()
				c := parse(t, tc.src)
				inc := RunPipeline(context.Background(), c, cc.cfg, nil)

				freshCfg := cc.cfg
				freshCfg.FreshRefine = true
				fresh := RunPipeline(context.Background(), parse(t, tc.src), freshCfg, nil)

				if inc.Outcome != fresh.Outcome {
					t.Fatalf("outcome: incremental = %v, fresh = %v", inc.Outcome, fresh.Outcome)
				}
				if inc.Status != fresh.Status {
					t.Fatalf("status: incremental = %v, fresh = %v", inc.Status, fresh.Status)
				}
				if inc.Refined != fresh.Refined {
					t.Errorf("rounds: incremental = %d, fresh = %d", inc.Refined, fresh.Refined)
				}
				if inc.Width != fresh.Width {
					t.Errorf("final width: incremental = %d, fresh = %d", inc.Width, fresh.Width)
				}
				if !inc.Incremental {
					t.Error("incremental run not marked Incremental")
				}
				if fresh.Incremental {
					t.Error("fresh run marked Incremental")
				}
				if inc.Status == status.Sat && !solver.VerifyModel(c, inc.Model) {
					t.Error("incremental model fails verification against the original")
				}
			})
		}
	}
}

// TestIncrementalRefinementChargesOnlyNewWork checks the incremental
// loop's deterministic accounting: on an instance needing widening, the
// session must report reuse and must not do more total solver work than
// rebuilding every round from scratch.
func TestIncrementalRefinementChargesOnlyNewWork(t *testing.T) {
	src := `
		(declare-fun x () Int)
		(declare-fun y () Int)
		(assert (= (- (* x x) (* y y)) 201))
		(assert (> x 90))
		(check-sat)`
	cfg := Config{Timeout: 30 * time.Second, Deterministic: true, RefineRounds: 2}
	inc := RunPipeline(context.Background(), parse(t, src), cfg, nil)
	if inc.Outcome != OutcomeVerified {
		t.Fatalf("incremental outcome = %v, want verified", inc.Outcome)
	}
	if inc.Refined == 0 {
		t.Fatal("instance did not refine; test needs a widening round")
	}
	if inc.Reuse.Rounds != inc.Refined+1 {
		t.Errorf("session rounds = %d, want %d", inc.Reuse.Rounds, inc.Refined+1)
	}
	if inc.Reuse.GateHits == 0 || inc.Reuse.VarsReused == 0 || inc.Reuse.ClausesRetained == 0 {
		t.Errorf("expected cross-round reuse, got %+v", inc.Reuse)
	}
	if inc.SolveWork <= 0 {
		t.Errorf("SolveWork = %d, want positive", inc.SolveWork)
	}

	freshCfg := cfg
	freshCfg.FreshRefine = true
	fresh := RunPipeline(context.Background(), parse(t, src), freshCfg, nil)
	if fresh.Outcome != OutcomeVerified {
		t.Fatalf("fresh outcome = %v, want verified", fresh.Outcome)
	}
	// On a single instance the two loops walk different search
	// trajectories (retained clauses steer the incremental solver, and
	// luck on crafted arithmetic swings either way), so strict
	// work-inequality is a corpus-level property — the harness
	// refinement experiment pins it. Here we bound the per-instance
	// overhead: a broken session that re-does every round from scratch
	// costs a multiple of the fresh loop, not a quarter more.
	if limit := fresh.SolveWork + fresh.SolveWork/4; inc.SolveWork > limit {
		t.Errorf("incremental solve work %d exceeds fresh %d by more than 25%%", inc.SolveWork, fresh.SolveWork)
	}
	t.Logf("solve work: incremental %d vs fresh %d units", inc.SolveWork, fresh.SolveWork)
}

// TestRealRefinementFallsBackToFresh checks that real/FP constraints keep
// the fresh loop (the incremental session only covers integer→BV).
func TestRealRefinementFallsBackToFresh(t *testing.T) {
	c := parse(t, `
		(declare-fun x () Real)
		(assert (> x 1.5))
		(assert (< (* x x) 4.0))
		(check-sat)`)
	res := RunPipeline(context.Background(), c, Config{Timeout: 10 * time.Second, RefineRounds: 2}, nil)
	if res.Incremental {
		t.Error("real constraint took the incremental integer path")
	}
	if res.Outcome != OutcomeVerified {
		t.Fatalf("outcome = %v, want verified", res.Outcome)
	}
}

// TestRefineMetricsAccumulate checks the package counters move when an
// incremental session runs.
func TestRefineMetricsAccumulate(t *testing.T) {
	before := pipeline.RefineMetricsSnapshot()
	src := `
		(declare-fun x () Int)
		(assert (= (* x x) 3249))
		(assert (> x 50))
		(check-sat)`
	RunPipeline(context.Background(), parse(t, src), Config{Timeout: 10 * time.Second, Deterministic: true, RefineRounds: 2}, nil)
	after := pipeline.RefineMetricsSnapshot()
	if after["sessions"] <= before["sessions"] {
		t.Error("sessions counter did not advance")
	}
	if after["rounds"] <= before["rounds"] {
		t.Error("rounds counter did not advance")
	}
	if after["work_units"] <= before["work_units"] {
		t.Error("work_units counter did not advance")
	}
}
