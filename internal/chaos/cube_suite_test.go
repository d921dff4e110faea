package chaos_test

import (
	"context"
	"runtime"
	"slices"
	"testing"
	"time"

	"staub/internal/benchgen"
	"staub/internal/chaos"
	"staub/internal/core"
	"staub/internal/cube"
	"staub/internal/engine"
	"staub/internal/harness"
	"staub/internal/smt"
	"staub/internal/solver"
	"staub/internal/status"
)

// cubeShortCorpus names the -short cube corpus: fast benchgen seed-1
// instances, of which knapsack-0007 and lin-sat-0033 split at CubeVars 2
// in a clean run (sign-unsat-0047 is a bounded unsat the probe decides).
// The refinement corpus cannot serve alone: the cube probe decides every
// one of its instances whole, so neither cube site would ever be reached.
var cubeShortCorpus = []struct{ logic, name string }{
	{"QF_LIA", "knapsack-0007"},
	{"QF_LIA", "lin-sat-0033"},
	{"QF_NIA", "sign-unsat-0047"},
}

// cubeCorpus is the cube suite's corpus: cubeShortCorpus, after the whole
// refinement corpus unless in -short mode.
func cubeCorpus(t *testing.T) []harness.RefinementInstance {
	t.Helper()
	var corpus []harness.RefinementInstance
	if !testing.Short() {
		corpus = harness.RefinementCorpus()
	}
	for _, want := range cubeShortCorpus {
		insts, err := benchgen.Suite(want.logic, 60, 1)
		if err != nil {
			t.Fatal(err)
		}
		i := slices.IndexFunc(insts, func(inst benchgen.Instance) bool { return inst.Name == want.name })
		if i < 0 {
			t.Fatalf("benchgen seed 1 has no %s instance %s", want.logic, want.name)
		}
		corpus = append(corpus, harness.RefinementInstance{Name: want.name, Src: insts[i].Constraint.Script()})
	}
	return corpus
}

// cubeSuiteJobs builds pipeline jobs that actually reach the cube-solve
// pass: no refinement rounds (sessions delegate to the sequential pass)
// and CubeVars set.
func cubeSuiteJobs(t *testing.T, corpus []harness.RefinementInstance) []engine.Job {
	t.Helper()
	jobs := make([]engine.Job, len(corpus))
	for i, inst := range corpus {
		c, err := smt.ParseScript(inst.Src)
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		jobs[i] = engine.Job{Kind: engine.KindPipeline, Constraint: c,
			Config: core.Config{Timeout: time.Second, Deterministic: true, CubeVars: 2, CubeJobs: 8}}
	}
	return jobs
}

// cubeRefCache memoizes the clean cube-solve reference verdicts.
var cubeRefCache = map[int][]status.Status{}

// cubeReferenceStatuses runs the corpus clean and returns its verdicts.
// It fails unless some instance splits into cubes: where the probe
// decides every instance, neither cube site is ever reached and every
// injection in the suite would go unfired.
func cubeReferenceStatuses(t *testing.T, corpus []harness.RefinementInstance) []status.Status {
	t.Helper()
	if cached, ok := cubeRefCache[len(corpus)]; ok {
		return cached
	}
	chaos.Disable()
	results := engine.New(0, nil).Run(context.Background(), cubeSuiteJobs(t, corpus))
	out := make([]status.Status, len(results))
	split := 0
	for i, r := range results {
		if r.Fault != "" || r.Pipeline.Fault != "" {
			t.Fatalf("%s: clean cube reference run faulted: %+v", corpus[i].Name, r)
		}
		if r.Pipeline.Cubes > 0 {
			split++
		}
		out[i] = r.Pipeline.Status
	}
	if split == 0 {
		t.Fatal("no corpus instance split into cubes in the clean reference run: the cube sites would never be reached")
	}
	cubeRefCache[len(corpus)] = out
	return out
}

// settleGoroutines waits for the goroutine count to fall back to the
// baseline (plus slack for runtime helpers); it fails the test when legs
// leak past the deadline.
func settleGoroutines(t *testing.T, site string, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("%s: %d goroutines before, %d after — cube legs leaked", site, before, now)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosCubeSitesNoFlips injects every fault class into the cube
// splitter ("cube:split") and the per-leg site ("cube:leg"), at rate 1,
// across the corpus. The containment contract is stronger than the pass
// sites': cube.Solve absorbs the fault and finishes sequentially on the
// base solver, so there is no verdict flip AND no degradation — the
// verdict must equal the clean cube reference whenever the pipeline
// reports no contained fault, and no goroutine may leak.
func TestChaosCubeSitesNoFlips(t *testing.T) {
	corpus := cubeCorpus(t)
	ref := cubeReferenceStatuses(t, corpus)
	sites := []string{"cube:split", "cube:leg"}
	for _, site := range sites {
		for _, fc := range faultClasses {
			t.Run(site+"/"+fc.fault.String(), func(t *testing.T) {
				before := runtime.NumGoroutine()
				fired := chaos.Snapshot()[fc.fault.String()]
				restore := chaos.Enable(chaos.NewInjector(chaos.Config{
					Seed: 47, Rate: 1, Fault: fc.fault,
					Sites:    []string{site},
					StallFor: 100 * time.Millisecond,
				}))
				results := engine.New(0, nil).Run(context.Background(), cubeSuiteJobs(t, corpus))
				restore()
				settleGoroutines(t, site, before)

				if got := chaos.Snapshot()[fc.fault.String()] - fired; got == 0 {
					t.Errorf("rate-1 injection at %s never fired", site)
				}
				for i, r := range results {
					name := corpus[i].Name
					checkNoFlip(t, name, ref[i], r.Pipeline.Status)
					if r.Pipeline.Fault == "" && r.Pipeline.Status != ref[i] {
						t.Errorf("%s: cube fallback changed the verdict: reference %v, got %v",
							name, ref[i], r.Pipeline.Status)
					}
				}
			})
		}
	}
}

// TestChaosCubeParallelDriver exercises the wall-clock conquer driver
// (real goroutines, Interrupt cancellation) under every fault class at
// the per-leg site: the verdict must survive via the sequential
// fallback, and every leg goroutine must be reaped on every path.
func TestChaosCubeParallelDriver(t *testing.T) {
	corpus := cubeCorpus(t)
	budget := solver.WorkBudgetFor(time.Second)
	chaos.Disable()
	refs := make([]status.Status, len(corpus))
	bnd := make([]*smt.Constraint, len(corpus))
	for i, inst := range corpus {
		c, err := smt.ParseScript(inst.Src)
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		tr, _, err := core.Transform(c, core.Config{Timeout: time.Second})
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		bnd[i] = tr.Bounded
		refs[i] = cube.Solve(bnd[i], cube.Options{Vars: 2, Jobs: 8, WorkBudget: budget}).Status
	}
	for _, fc := range faultClasses {
		t.Run(fc.fault.String(), func(t *testing.T) {
			before := runtime.NumGoroutine()
			restore := chaos.Enable(chaos.NewInjector(chaos.Config{
				Seed: 48, Rate: 1, Fault: fc.fault,
				Sites:    []string{"cube:leg"},
				StallFor: 100 * time.Millisecond,
			}))
			for i := range corpus {
				res := cube.Solve(bnd[i], cube.Options{Vars: 2, Jobs: 8, WorkBudget: budget})
				checkNoFlip(t, corpus[i].Name, refs[i], res.Status)
				if res.Status != refs[i] {
					t.Errorf("%s: fallback verdict %v != clean %v (fault=%q)",
						corpus[i].Name, res.Status, refs[i], res.Fault)
				}
			}
			restore()
			settleGoroutines(t, "cube:leg(parallel)", before)
		})
	}
}
