package solver

import (
	"fmt"

	"staub/internal/metrics"
	"staub/internal/sat"
)

// Package-level SAT-core health counters, fed by every bit-blasting
// solve (one-shot and incremental) in the process and declared on
// metrics.Process, so /metrics and `staub-bench -v` export them. Together
// with the work counters they answer "is the CDCL core healthy": a
// conflicts/sec collapse or an LBD histogram skewed to the last bucket
// localizes a regression to the solver without re-running a benchmark.
var (
	satDecisions    = metrics.Process.Counter("staub_sat_decisions_total", nil)
	satPropagations = metrics.Process.Counter("staub_sat_propagations_total", nil)
	satConflicts    = metrics.Process.Counter("staub_sat_conflicts_total", nil)
	satRestarts     = metrics.Process.Counter("staub_sat_restarts_total", nil)
	satLearned      = metrics.Process.Counter("staub_sat_learned_total", nil)
	satGlueLearned  = metrics.Process.Counter("staub_sat_glue_learned_total", nil)
	satReductions   = metrics.Process.Counter("staub_sat_db_reductions_total", nil)
	satDeleted      = metrics.Process.Counter("staub_sat_clauses_deleted_total", nil)
	satSubsumed     = metrics.Process.Counter("staub_sat_clauses_subsumed_total", nil)
	satStrengthened = metrics.Process.Counter("staub_sat_clauses_strengthened_total", nil)
	satLBDHist      [sat.LBDBuckets]*metrics.Counter
)

func init() {
	for i := range satLBDHist {
		satLBDHist[i] = metrics.Process.Counter("staub_sat_learned_lbd_total",
			metrics.Labels{"lbd": lbdBucketLabel(i)})
	}
}

// lbdBucketLabel names histogram bucket i the way the Stats doc defines
// it: buckets 0..LBDBuckets-2 are exact LBDs 1..LBDBuckets-1, the last
// bucket is everything larger.
func lbdBucketLabel(i int) string {
	if i == sat.LBDBuckets-1 {
		return fmt.Sprintf("%d+", sat.LBDBuckets)
	}
	return fmt.Sprintf("%d", i+1)
}

// recordSATStats folds one solver's counter delta into the process-wide
// totals. One-shot solves pass the whole Stats (the solver was fresh);
// incremental sessions pass the difference between two snapshots.
func recordSATStats(st sat.Stats) {
	satDecisions.Add(st.Decisions)
	satPropagations.Add(st.Propagations)
	satConflicts.Add(st.Conflicts)
	satRestarts.Add(st.Restarts)
	satLearned.Add(st.Learned)
	satGlueLearned.Add(st.GlueLearned)
	satReductions.Add(st.Reductions)
	satDeleted.Add(st.Deleted)
	satSubsumed.Add(st.Subsumed)
	satStrengthened.Add(st.Strengthened)
	for i, n := range st.LBDHist {
		satLBDHist[i].Add(n)
	}
}

// satStatsDelta subtracts an earlier snapshot from a later one,
// field by field.
func satStatsDelta(after, before sat.Stats) sat.Stats {
	d := sat.Stats{
		Decisions:    after.Decisions - before.Decisions,
		Propagations: after.Propagations - before.Propagations,
		Conflicts:    after.Conflicts - before.Conflicts,
		Restarts:     after.Restarts - before.Restarts,
		Learned:      after.Learned - before.Learned,
		GlueLearned:  after.GlueLearned - before.GlueLearned,
		Reductions:   after.Reductions - before.Reductions,
		Deleted:      after.Deleted - before.Deleted,
		Subsumed:     after.Subsumed - before.Subsumed,
		Strengthened: after.Strengthened - before.Strengthened,
	}
	for i := range d.LBDHist {
		d.LBDHist[i] = after.LBDHist[i] - before.LBDHist[i]
	}
	return d
}

// SATMetricsSnapshot reports the current SAT-core counter values for the
// benchmark's per-layer report and the bit-blast golden; FormatLBDHist
// renders the LBD histogram.
func SATMetricsSnapshot() map[string]int64 {
	return map[string]int64{
		"decisions":    satDecisions.Value(),
		"propagations": satPropagations.Value(),
		"conflicts":    satConflicts.Value(),
		"restarts":     satRestarts.Value(),
		"learned":      satLearned.Value(),
		"glue_learned": satGlueLearned.Value(),
		"reductions":   satReductions.Value(),
		"deleted":      satDeleted.Value(),
		"subsumed":     satSubsumed.Value(),
		"strengthened": satStrengthened.Value(),
	}
}

// FormatLBDHist renders the process-wide learning-time LBD histogram as
// "1:n 2:n ... 8+:n" for one-line CLI health summaries.
func FormatLBDHist() string {
	out := ""
	for i := range satLBDHist {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s:%d", lbdBucketLabel(i), satLBDHist[i].Value())
	}
	return out
}
