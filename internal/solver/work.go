package solver

import "time"

// Virtual-time cost model.
//
// Every engine in the repository counts its elementary search steps
// (intsolver and realsolver nodes, fpsolver local-search moves, SAT
// propagations scaled by satWorkScale). A solve that is given a WorkBudget terminates on
// that deterministic step count instead of the wall clock, so verdicts and
// reported costs are identical across runs, machines and worker counts.
// Virtual time converts work units to durations at a fixed rate, which is
// what the harness reports in the evaluation tables: the numbers are a
// deterministic function of the benchmark seed.
const (
	// UnitsPerSecond is the virtual-time calibration: one work unit is one
	// elementary search step, and a virtual second is this many of them
	// (roughly the throughput of the engines on commodity hardware, so
	// virtual budgets and wall-clock budgets have comparable strength and a
	// deterministic run costs about as much wall time as its nominal
	// budget).
	UnitsPerSecond = 200_000

	// satWorkScale is how many SAT propagations count as one work unit;
	// propagations are much cheaper than the other engines' search nodes.
	satWorkScale = 40

	// SATWorkScale exports satWorkScale for the cube tier, which drives
	// sat.Solver propagation budgets directly and must convert between
	// propagations and the work units the rest of the cost model uses.
	SATWorkScale = satWorkScale

	// fpWorkCost is how many work units one fpsolver node costs: every node
	// re-evaluates the whole assertion set and its violation cost, far
	// more than an intsolver/realsolver branch step. The price dates from
	// when that evaluation ran on big-number arithmetic; the FP word
	// kernel made a node about ten times cheaper without repricing it.
	fpWorkCost = 40
)

// WorkBudgetFor converts a time budget to a deterministic work budget.
func WorkBudgetFor(d time.Duration) int64 {
	b := int64(float64(d) / float64(time.Second) * UnitsPerSecond)
	if b < 1 {
		b = 1
	}
	return b
}

// VirtualDuration converts spent work units to virtual time.
func VirtualDuration(work int64) time.Duration {
	if work < 1 {
		work = 1
	}
	return time.Duration(float64(work) / UnitsPerSecond * float64(time.Second))
}
