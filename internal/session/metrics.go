package session

import "staub/internal/metrics"

// Package-level session counters, exported to /metrics through
// RegisterSessionMetrics. They accumulate across every session in the
// process; the server layers its own live-count/byte gauges on top.
var (
	sessChecks      metrics.Counter
	sessCheckWork   metrics.Counter
	sessReplayWork  metrics.Counter
	sessSavedWork   metrics.Counter
	sessRebuilds    metrics.Counter
	sessFallbacks   metrics.Counter
	sessModelReuses metrics.Counter
	sessMemoHits    metrics.Counter
	sessDropBudget  metrics.Counter
	sessDropChaos   metrics.Counter
	sessDropFault   metrics.Counter
	sessDropLRU     metrics.Counter
)

// RegisterSessionMetrics exposes the session-core counters through reg:
// checks served, incremental work spent, the fresh-replay work the same
// checks would have cost (measured-replay mode only) and the saving
// between the two, solver-state rebuilds after an eviction, unbounded
// fallback solves, and solver-state drops by reason.
func RegisterSessionMetrics(reg *metrics.Registry) {
	reg.RegisterCounter("staub_session_checks_total", nil, &sessChecks)
	reg.RegisterCounter("staub_session_check_work_units_total", nil, &sessCheckWork)
	reg.RegisterCounter("staub_session_replay_work_units_total", nil, &sessReplayWork)
	reg.RegisterCounter("staub_session_saved_work_units_total", nil, &sessSavedWork)
	reg.RegisterCounter("staub_session_rebuilds_total", nil, &sessRebuilds)
	reg.RegisterCounter("staub_session_fallbacks_total", nil, &sessFallbacks)
	reg.RegisterCounter("staub_session_model_reuses_total", nil, &sessModelReuses)
	reg.RegisterCounter("staub_session_memo_hits_total", nil, &sessMemoHits)
	reg.RegisterCounter("staub_session_state_drops_total", metrics.Labels{"reason": "budget"}, &sessDropBudget)
	reg.RegisterCounter("staub_session_state_drops_total", metrics.Labels{"reason": "chaos"}, &sessDropChaos)
	reg.RegisterCounter("staub_session_state_drops_total", metrics.Labels{"reason": "fault"}, &sessDropFault)
	reg.RegisterCounter("staub_session_state_drops_total", metrics.Labels{"reason": "lru"}, &sessDropLRU)
}

func dropCounter(reason string) *metrics.Counter {
	switch reason {
	case "budget":
		return &sessDropBudget
	case "chaos":
		return &sessDropChaos
	case "fault":
		return &sessDropFault
	case "lru":
		return &sessDropLRU
	default:
		return nil
	}
}
