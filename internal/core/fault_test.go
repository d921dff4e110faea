package core

import (
	"context"
	"testing"
	"time"

	"staub/internal/chaos"
	"staub/internal/pipeline"
	"staub/internal/status"
)

const faultSat = `
(declare-fun x () Int)
(assert (= (* x x) 49))
(assert (> x 0))
(check-sat)
`

const faultUnsat = `
(declare-fun x () Int)
(assert (> x 5))
(assert (< x 5))
(check-sat)
`

// degradeCfg keeps the test fast: deterministic so -race slowdowns don't
// change verdicts, a short timeout so injected stalls cancel quickly.
func degradeCfg() Config {
	return Config{Timeout: 2 * time.Second, Deterministic: true}
}

func TestPortfolioDegradesOnStaubPanic(t *testing.T) {
	restore := chaos.Enable(chaos.NewInjector(chaos.Config{
		Seed: 1, Rate: 1, Fault: chaos.FaultPassPanic,
		Sites: []string{"pass:" + pipeline.PassTranslate},
	}))
	defer restore()
	runs, degraded := portfolioRuns.Value(), portfolioDegraded.Value()
	res := RunPortfolio(context.Background(), parse(t, faultSat), degradeCfg())
	if res.Status != status.Sat {
		t.Fatalf("status = %v, want sat from the unbounded leg", res.Status)
	}
	if res.FromSTAUB {
		t.Fatal("verdict attributed to a panicked STAUB leg")
	}
	if !res.Degraded {
		t.Fatal("Degraded not set after a contained STAUB-leg panic")
	}
	if res.Pipeline.Fault != pipeline.FaultPanic {
		t.Fatalf("pipeline fault = %q, want panic", res.Pipeline.Fault)
	}
	if portfolioDegraded.Value() <= degraded || portfolioRuns.Value() <= runs {
		t.Errorf("portfolio counters did not advance: runs %d → %d, degraded %d → %d",
			runs, portfolioRuns.Value(), degraded, portfolioDegraded.Value())
	}
}

func TestPortfolioDegradesOnStallNoVerdictFlip(t *testing.T) {
	// The STAUB leg wedges; the unbounded leg must still deliver the
	// definitive unsat — degradation, never a flipped verdict.
	restore := chaos.Enable(chaos.NewInjector(chaos.Config{
		Seed: 2, Rate: 1, Fault: chaos.FaultSolverStall,
		Sites:    []string{"pass:" + pipeline.PassInferBounds},
		StallFor: 30 * time.Second,
	}))
	defer restore()
	start := time.Now()
	res := RunPortfolio(context.Background(), parse(t, faultUnsat), degradeCfg())
	if el := time.Since(start); el > 25*time.Second {
		t.Fatalf("portfolio took %v; the stalled leg was not cancelled by its watchdog", el)
	}
	if res.Status != status.Unsat {
		t.Fatalf("status = %v, want unsat from the unbounded leg", res.Status)
	}
	if !res.Degraded || res.FromSTAUB {
		t.Fatalf("Degraded/FromSTAUB = %t/%t, want true/false", res.Degraded, res.FromSTAUB)
	}
}

func TestPortfolioDegradesOnBudgetBlowup(t *testing.T) {
	restore := chaos.Enable(chaos.NewInjector(chaos.Config{
		Seed: 3, Rate: 1, Fault: chaos.FaultBudgetBlowup,
		Sites: []string{"pass:" + pipeline.PassBoundedSolve},
	}))
	defer restore()
	res := RunPortfolio(context.Background(), parse(t, faultSat), degradeCfg())
	if res.Status != status.Sat || res.FromSTAUB {
		t.Fatalf("status/FromSTAUB = %v/%t, want sat from the unbounded leg", res.Status, res.FromSTAUB)
	}
	if !res.Degraded || res.Pipeline.Fault != pipeline.FaultBudget {
		t.Fatalf("Degraded/fault = %t/%q, want true/budget", res.Degraded, res.Pipeline.Fault)
	}
}

func TestPortfolioCleanRunNotDegraded(t *testing.T) {
	chaos.Disable()
	res := RunPortfolio(context.Background(), parse(t, faultSat), degradeCfg())
	if res.Status != status.Sat {
		t.Fatalf("status = %v, want sat", res.Status)
	}
	if res.Degraded {
		t.Fatal("clean run reported Degraded")
	}
	if res.Pipeline.Fault != "" {
		t.Fatalf("clean run carries fault %q", res.Pipeline.Fault)
	}
}
