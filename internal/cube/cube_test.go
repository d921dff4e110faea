// Tests live in package cube_test so they can drive the full pipeline
// through core (which imports cube to register the pass) without an
// import cycle.
package cube_test

import (
	"context"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"staub/internal/benchgen"
	"staub/internal/core"
	"staub/internal/cube"
	"staub/internal/harness"
	"staub/internal/smt"
	"staub/internal/solver"
	"staub/internal/status"
)

const testTimeout = 1500 * time.Millisecond

// bounded transforms an SMT-LIB integer script into its bounded form,
// the input cube.Solve operates on.
func bounded(t *testing.T, src string) *smt.Constraint {
	t.Helper()
	c, err := smt.ParseScript(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	tr, _, err := core.Transform(c, core.Config{Timeout: testTimeout})
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	return tr.Bounded
}

// refStatus is the sequential reference verdict on a bounded constraint
// under the same deterministic budget the cube solve gets.
func refStatus(c *smt.Constraint, budget int64) status.Status {
	return solver.Solve(c, solver.Options{WorkBudget: budget}).Status
}

// TestCubeSolveMatchesSequential pins cube.Solve's verdict against the
// sequential solver's on every refinement-corpus instance, for both
// drivers, under the dominance contract: a decided sequential verdict
// must be reproduced byte-identically; a sequential timeout may only be
// strengthened to a decided verdict (each leg gets the full budget, so
// the race is at least as strong), never the other way. The wall-clock
// driver runs here too, so `-race` over this package exercises the
// goroutine fan-out.
func TestCubeSolveMatchesSequential(t *testing.T) {
	budget := solver.WorkBudgetFor(testTimeout)
	for _, inst := range harness.RefinementCorpus() {
		t.Run(inst.Name, func(t *testing.T) {
			c := bounded(t, inst.Src)
			want := refStatus(c, budget)
			for _, det := range []bool{true, false} {
				res := cube.Solve(c, cube.Options{
					Vars:          2,
					Jobs:          8,
					WorkBudget:    budget,
					Deterministic: det,
				})
				switch {
				case want != status.Unknown && res.Status != want:
					t.Errorf("det=%t: cube.Solve = %v, want %v (fault=%q cubes=%d)",
						det, res.Status, want, res.Fault, res.Cubes)
				case want == status.Unknown && res.Status != status.Unknown:
					t.Logf("det=%t: cube strengthened a sequential timeout to %v", det, res.Status)
				}
				if res.Work < 1 || res.Makespan < 1 {
					t.Errorf("det=%t: Work=%d Makespan=%d, want ≥ 1", det, res.Work, res.Makespan)
				}
				if res.Work < res.Makespan {
					t.Errorf("det=%t: Work %d < Makespan %d", det, res.Work, res.Makespan)
				}
			}
		})
	}
}

// cubeDiffCorpus is TestCubeDiff's corpus: the harness refinement corpus
// plus two fast benchgen seed-1 QF_LIA instances whose cube run splits.
// The probe decides every refinement instance whole, so without them no
// conquer driver would run.
func cubeDiffCorpus(t *testing.T) []harness.RefinementInstance {
	t.Helper()
	insts, err := benchgen.Suite("QF_LIA", 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	corpus := harness.RefinementCorpus()
	for _, name := range []string{"knapsack-0007", "lin-sat-0033"} {
		i := slices.IndexFunc(insts, func(inst benchgen.Instance) bool { return inst.Name == name })
		if i < 0 {
			t.Fatalf("benchgen QF_LIA seed 1 has no instance %s", name)
		}
		corpus = append(corpus, harness.RefinementInstance{Name: name, Src: insts[i].Constraint.Script()})
	}
	return corpus
}

// TestCubeDiff is the differential gate. Across cubeDiffCorpus it checks
// two invariants. Against the sequential pipeline: a decided sequential
// verdict is reproduced byte-identically by the cube pipeline, and a
// sequential timeout at worst stays unknown (cube strengthening a timeout
// to a decided verdict is the feature, and is logged). Across cube
// workers: cube.Solve's full result on the bounded form — verdict, model,
// work, cube count — must be byte-identical at 1, 2 and 8 workers,
// because the worker count may only move the virtual makespan, never the
// answer. At least one instance must split into cubes at 1 worker: a
// corpus the probe decides whole never reaches the conquer drivers, and
// then the gate checks nothing.
func TestCubeDiff(t *testing.T) {
	ctx := context.Background()
	budget := solver.WorkBudgetFor(testTimeout)
	split := 0
	for _, inst := range cubeDiffCorpus(t) {
		t.Run(inst.Name, func(t *testing.T) {
			c, err := smt.ParseScript(inst.Src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			seqCfg := core.Config{Timeout: testTimeout, Deterministic: true}
			seq := core.RunPipeline(ctx, c, seqCfg, nil)
			seqDecided := seq.Outcome == core.OutcomeVerified || seq.Outcome == core.OutcomeBoundedUnsat

			cfg := seqCfg
			cfg.CubeVars = 3
			res := core.RunPipeline(ctx, c, cfg, nil)
			if seqDecided {
				if got, want := res.Status.String(), seq.Status.String(); got != want {
					t.Fatalf("verdict %q != sequential %q", got, want)
				}
				if res.Outcome != seq.Outcome {
					t.Fatalf("outcome %v != sequential %v", res.Outcome, seq.Outcome)
				}
			} else if res.Outcome != seq.Outcome {
				t.Logf("cube strengthened sequential outcome %v to %v", seq.Outcome, res.Outcome)
			}
			if res.Fault != "" {
				t.Fatalf("unexpected fault %q", res.Fault)
			}

			bnd := bounded(t, inst.Src)
			var first cube.Result
			for i, jobs := range []int{1, 2, 8} {
				cres := cube.Solve(bnd, cube.Options{Vars: 3, Jobs: jobs, WorkBudget: budget, Deterministic: true})
				if cres.Fault != "" {
					t.Fatalf("jobs=%d: unexpected fault %q", jobs, cres.Fault)
				}
				if i == 0 {
					first = cres
					if cres.Cubes > 0 {
						split++
					}
					continue
				}
				if cres.Status != first.Status {
					t.Errorf("jobs=%d: status %v != jobs=1 status %v", jobs, cres.Status, first.Status)
				}
				if !reflect.DeepEqual(cres.Model, first.Model) {
					t.Errorf("jobs=%d: model %v != jobs=1 model %v", jobs, cres.Model, first.Model)
				}
				if cres.Work != first.Work {
					t.Errorf("jobs=%d: work %d != jobs=1 work %d", jobs, cres.Work, first.Work)
				}
				if cres.Cubes != first.Cubes {
					t.Errorf("jobs=%d: cubes %d != jobs=1 cubes %d", jobs, cres.Cubes, first.Cubes)
				}
			}
		})
	}
	if split == 0 {
		t.Fatal("no corpus instance split into cubes at jobs=1: the probe decided every one, so no conquer driver ran")
	}
}

// TestCubeProbeDecides checks that a trivial instance is decided by the
// probing solve alone: no cubes are built and the verdict stands.
func TestCubeProbeDecides(t *testing.T) {
	c := bounded(t, `
		(declare-fun x () Int)
		(assert (= x 5))
		(check-sat)`)
	res := cube.Solve(c, cube.Options{
		Vars:          2,
		WorkBudget:    solver.WorkBudgetFor(testTimeout),
		Deterministic: true,
	})
	if res.Status != status.Sat {
		t.Fatalf("Status = %v, want Sat", res.Status)
	}
	if res.Cubes != 0 {
		t.Fatalf("Cubes = %d, want 0 (probe should decide)", res.Cubes)
	}
}

// TestCubeInterrupt checks that a pre-set interrupt aborts the whole
// race with Unknown/TimedOut instead of hanging or mis-answering.
func TestCubeInterrupt(t *testing.T) {
	c := bounded(t, harness.RefinementCorpus()[0].Src)
	var stop atomic.Bool
	stop.Store(true)
	res := cube.Solve(c, cube.Options{
		Vars:          2,
		WorkBudget:    solver.WorkBudgetFor(testTimeout),
		Interrupt:     &stop,
		Deterministic: true,
	})
	if res.Status != status.Unknown || !res.TimedOut {
		t.Fatalf("interrupted cube.Solve = %v (timedOut=%t), want Unknown/timed out",
			res.Status, res.TimedOut)
	}
}

// TestCubeWorkAccounting checks the accounting invariants: total work
// counts every leg (cancelled legs' partial quanta included), so it can
// never undercut the virtual critical path, and both survive a race
// that ends early with a winner.
func TestCubeWorkAccounting(t *testing.T) {
	budget := solver.WorkBudgetFor(testTimeout)
	for _, inst := range harness.RefinementCorpus() {
		c := bounded(t, inst.Src)
		res := cube.Solve(c, cube.Options{
			Vars:          2,
			Jobs:          8,
			WorkBudget:    budget,
			Deterministic: true,
		})
		if res.Work < res.Makespan {
			t.Errorf("%s: Work %d < Makespan %d — cancelled legs' work dropped?",
				inst.Name, res.Work, res.Makespan)
		}
		if res.SatCube >= 0 && res.Cubes > 0 && res.UnsatCubes >= res.Cubes {
			t.Errorf("%s: inconsistent race bookkeeping: satCube=%d unsatCubes=%d cubes=%d",
				inst.Name, res.SatCube, res.UnsatCubes, res.Cubes)
		}
	}
}

// TestCubePortfolioLeg checks the three-leg portfolio: with CubeVars set
// the race still returns the reference verdict, and the two-leg race is
// untouched when CubeVars is zero.
func TestCubePortfolioLeg(t *testing.T) {
	ctx := context.Background()
	inst := harness.RefinementCorpus()[0]
	c, err := smt.ParseScript(inst.Src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	base := core.RunPortfolio(ctx, c, core.Config{Timeout: testTimeout, Deterministic: true})
	cubed := core.RunPortfolio(ctx, c, core.Config{
		Timeout: testTimeout, Deterministic: true, CubeVars: 2,
	})
	if cubed.Status != base.Status {
		t.Fatalf("portfolio with cube leg = %v, without = %v", cubed.Status, base.Status)
	}
}
