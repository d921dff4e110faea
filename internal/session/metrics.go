package session

import "staub/internal/metrics"

// Package-level session counters, declared on metrics.Process and so
// exported to /metrics: checks served, incremental work spent, the
// fresh-replay work the same checks would have cost (measured-replay mode
// only) and the saving between the two, solver-state rebuilds after an
// eviction, unbounded fallback solves, model reuses and memo hits. They
// accumulate across every session in the process; the server layers its
// own live-count/byte gauges on top.
var (
	sessChecks      = metrics.Process.Counter("staub_session_checks_total", nil)
	sessCheckWork   = metrics.Process.Counter("staub_session_check_work_units_total", nil)
	sessReplayWork  = metrics.Process.Counter("staub_session_replay_work_units_total", nil)
	sessSavedWork   = metrics.Process.Counter("staub_session_saved_work_units_total", nil)
	sessRebuilds    = metrics.Process.Counter("staub_session_rebuilds_total", nil)
	sessFallbacks   = metrics.Process.Counter("staub_session_fallbacks_total", nil)
	sessModelReuses = metrics.Process.Counter("staub_session_model_reuses_total", nil)
	sessMemoHits    = metrics.Process.Counter("staub_session_memo_hits_total", nil)
)

// sessDrops counts solver-state drops by reason.
var sessDrops = map[string]*metrics.Counter{}

func init() {
	for _, reason := range []string{"budget", "chaos", "fault", "lru"} {
		sessDrops[reason] = metrics.Process.Counter("staub_session_state_drops_total", metrics.Labels{"reason": reason})
	}
}
