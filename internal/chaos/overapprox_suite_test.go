package chaos_test

import (
	"context"
	"testing"
	"time"

	"staub/internal/chaos"
	"staub/internal/core"
	"staub/internal/engine"
	"staub/internal/harness"
	"staub/internal/pipeline"
	"staub/internal/smt"
	"staub/internal/status"
)

// overSites are the over-approximating passes' chaos sites, in chain
// order.
var overSites = []string{"over:residue", "over:linearize", "over:bounds"}

// overSuiteJobs builds portfolio jobs with the over-approximation leg
// enabled, so the over sites are reached on every solve that gets that
// far.
func overSuiteJobs(t *testing.T, corpus []harness.RefinementInstance, over bool) []engine.Job {
	t.Helper()
	jobs := suiteJobs(t, corpus, engine.KindPortfolio)
	for i := range jobs {
		jobs[i].Config.OverApprox = over
	}
	return jobs
}

// overRefCache memoizes the clean over-enabled reference verdicts.
var overRefCache = map[int][]status.Status{}

func overReferenceStatuses(t *testing.T, corpus []harness.RefinementInstance) []status.Status {
	t.Helper()
	if cached, ok := overRefCache[len(corpus)]; ok {
		return cached
	}
	chaos.Disable()
	results := engine.New(0, nil).Run(context.Background(), overSuiteJobs(t, corpus, true))
	out := make([]status.Status, len(results))
	for i, r := range results {
		if r.Fault != "" || r.Portfolio.Degraded {
			t.Fatalf("%s: clean over-enabled reference run faulted: %+v", corpus[i].Name, r)
		}
		out[i] = r.Portfolio.Status
	}
	overRefCache[len(corpus)] = out
	return out
}

// TestOverLegNeverFlipsCleanVerdicts is the zero-flip half without any
// chaos: enabling the over-approximation leg must never change a decided
// portfolio verdict — it may only rescue unknowns into sound unsats.
func TestOverLegNeverFlipsCleanVerdicts(t *testing.T) {
	corpus := suiteCorpus(t)
	base := referenceStatuses(t, corpus)
	over := overReferenceStatuses(t, corpus)
	for i := range corpus {
		if base[i] != status.Unknown && over[i] != status.Unknown && base[i] != over[i] {
			t.Errorf("%s: over leg flipped the verdict: %v without, %v with",
				corpus[i].Name, base[i], over[i])
		}
		if base[i] != status.Unknown && over[i] == status.Unknown {
			t.Errorf("%s: over leg lost a decided verdict: %v became unknown", corpus[i].Name, base[i])
		}
	}
}

// residueRefuted reports, per corpus row, whether the over chain's first
// pass alone refutes it. Such a row's over leg answers before it reaches
// a later site, so a fault injected there never touches that verdict.
func residueRefuted(t *testing.T, corpus []harness.RefinementInstance) []bool {
	t.Helper()
	chaos.Disable()
	out := make([]bool, len(corpus))
	for i, inst := range corpus {
		c, err := smt.ParseScript(inst.Src)
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		st := pipeline.NewState(context.Background(), c, core.Config{Timeout: time.Second, Deterministic: true}, time.Time{}, nil)
		st.Direction = pipeline.DirExact
		pipeline.Exec(st, pipeline.MustPasses(pipeline.PassResidue))
		out[i] = st.Res.Status == status.Unsat
	}
	return out
}

// TestChaosOverSitesNoFlips injects every fault class into each
// over-approximation site at rate 1. The over leg is an accelerator, not
// a load-bearing leg: its faults must be absorbed without flipping any
// verdict, without marking the portfolio degraded (the sequential STAUB
// leg is untouched), and without ever attributing a verdict to the
// faulted over leg. A row the residue pass refutes answers before the
// later sites, so only there may the over leg still win.
func TestChaosOverSitesNoFlips(t *testing.T) {
	corpus := suiteCorpus(t)
	ref := overReferenceStatuses(t, corpus)
	byResidue := residueRefuted(t, corpus)
	for _, site := range overSites {
		for _, fc := range faultClasses {
			t.Run(site+"/"+fc.fault.String(), func(t *testing.T) {
				jobs := overSuiteJobs(t, corpus, true)
				before := chaos.Snapshot()[fc.fault.String()]
				restore := chaos.Enable(chaos.NewInjector(chaos.Config{
					Seed: 49, Rate: 1, Fault: fc.fault,
					Sites:    []string{site},
					StallFor: 100 * time.Millisecond,
				}))
				results := engine.New(0, nil).Run(context.Background(), jobs)
				restore()

				if fired := chaos.Snapshot()[fc.fault.String()] - before; fired == 0 {
					t.Errorf("rate-1 injection at %s never fired", site)
				}
				for i, r := range results {
					name := corpus[i].Name
					checkNoFlip(t, name, ref[i], r.Portfolio.Status)
					if r.Portfolio.FromOver && (site == "over:residue" || !byResidue[i]) {
						t.Errorf("%s: verdict attributed to the faulted over leg", name)
					}
					if r.Portfolio.Degraded {
						t.Errorf("%s: over-leg fault degraded the portfolio", name)
					}
				}
			})
		}
	}
}

// TestChaosOverPartialRateNoFlips fires at rate 0.3 across every over
// site simultaneously, so some solves run the over leg clean and some
// faulted; every decided verdict must still match the clean reference.
func TestChaosOverPartialRateNoFlips(t *testing.T) {
	corpus := suiteCorpus(t)
	ref := overReferenceStatuses(t, corpus)
	for _, fc := range faultClasses {
		t.Run(fc.fault.String(), func(t *testing.T) {
			jobs := overSuiteJobs(t, corpus, true)
			restore := chaos.Enable(chaos.NewInjector(chaos.Config{
				Seed: 50, Rate: 0.3, Fault: fc.fault,
				Sites:    overSites,
				StallFor: 100 * time.Millisecond,
			}))
			results := engine.New(0, nil).Run(context.Background(), jobs)
			restore()

			for i, r := range results {
				name := corpus[i].Name
				checkNoFlip(t, name, ref[i], r.Portfolio.Status)
				if r.Portfolio.Degraded {
					t.Errorf("%s: over-leg fault degraded the portfolio", name)
				}
			}
		})
	}
}
