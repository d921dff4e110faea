package server

import (
	"encoding/json"
	"net/http"
	"time"

	"staub/internal/engine"
	"staub/internal/pool"
)

// handlePeerSolve serves POST /v1/peer/solve: one solve routed here by a
// pool peer because this node owns the job's cache key. The job runs
// through the same admission control and queue as client traffic, but
// strictly locally (engine.SolveLocal) — a routed job is never routed
// onward, so inconsistent ring views during membership changes cannot
// form forwarding loops.
//
// Only clean results travel back. Faulted, degraded and
// queued-past-deadline solves answer HTTP errors instead (the routing
// client's degradation ladder turns those into a retry or a local
// solve), so the wire format never needs to encode a fault and a peer's
// contained failure never becomes another node's verdict.
func (s *Server) handlePeerSolve(w http.ResponseWriter, r *http.Request) {
	if s.pool == nil {
		writeError(w, http.StatusNotFound, "pooling disabled on this node")
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var wj pool.WireJob
	if err := json.Unmarshal(body, &wj); err != nil {
		writeError(w, http.StatusBadRequest, "invalid peer job: %v", err)
		return
	}
	j, err := pool.DecodeJob(wj)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The client addressed this node by the key's ring position; solving
	// a job that hashes to a different key would poison two caches with
	// one answer. Recompute and refuse mismatches.
	if key := j.Key(); key != wj.Key {
		writeError(w, http.StatusUnprocessableEntity,
			"peer job key mismatch: got %s, recomputed %s", wj.Key, key)
		return
	}
	budget := s.timeout(j.Config.Timeout)
	if !s.admit(1) {
		// 429 tells the client this node is alive but full; it solves
		// locally without retrying (retrying would pile onto the overload)
		// and without a breaker failure.
		w.Header().Set("Retry-After", retryAfter(budget))
		writeError(w, http.StatusTooManyRequests,
			"saturated: %d solves admitted (limit %d)", s.Admitted(), s.limit)
		return
	}
	defer s.release(1)
	ctx, cancel := s.solveCtx(r, budget, j.Config.Deterministic)
	defer cancel()
	t0 := time.Now()
	res, ran := s.runJob(ctx, j, true)
	if !ran {
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded while queued")
		return
	}
	if res.Fault != "" {
		s.faultedSolves.Inc()
		s.noteFault()
		writeError(w, http.StatusServiceUnavailable, "peer solve faulted: %s", res.Err)
		return
	}
	if j.Kind == engine.KindPortfolio && res.Portfolio.Degraded {
		s.degradedSolves.Inc()
		s.noteFault()
		writeError(w, http.StatusServiceUnavailable, "peer solve degraded")
		return
	}
	s.cfg.Log.Printf("peer-solve id=%s kind=%d cache_hit=%t dur=%s",
		requestID(r.Context()), int(j.Kind), res.CacheHit, time.Since(t0).Round(time.Microsecond))
	writeJSON(w, http.StatusOK, pool.EncodeResult(j, res))
}
