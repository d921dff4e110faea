package server

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"staub/internal/session"
	"staub/internal/solver"
)

// The session tier: stateful SMT-LIB conversations over HTTP.
//
//	POST   /v1/session             create (returns the id; knobs in the body)
//	POST   /v1/session/{id}/assert feed raw SMT-LIB commands (no checks)
//	POST   /v1/session/{id}/push   open scopes   {"n": 1}
//	POST   /v1/session/{id}/pop    close scopes  {"n": 1}
//	POST   /v1/session/{id}/check  decide the visible set
//	GET    /v1/session/{id}        inspect
//	DELETE /v1/session/{id}        close
//
// Sessions live in a TTL+LRU table: every operation slides the idle
// deadline, creation past MaxSessions evicts the least-recently-used
// session, and the summed accounting bytes of all sessions are kept
// under SessionGlobalBudget by first spilling LRU solver state (a
// session's solver is a cache; dropping it costs its next check a
// rebuild, never a verdict) and then evicting whole LRU sessions.
//
// Admission control is deliberately asymmetric: creating a session goes
// through the table bounds, but a live session's check is never 429'd —
// the conversation holds client state that a rejection would strand, so
// checks only serialize on the session's own lock.

// sessionEntry is one live conversation in the table.
type sessionEntry struct {
	id       string
	sess     *session.Session
	ttl      time.Duration
	expires  time.Time
	lastUsed time.Time
}

// SessionCreateRequest is the decoded body of POST /v1/session. All
// fields are optional; zero values take the server/session defaults.
type SessionCreateRequest struct {
	// TTLMS overrides the idle lifetime (capped by the server's
	// SessionTTL; 0 selects the cap).
	TTLMS int64 `json:"ttl_ms,omitempty"`
	// TimeoutMS is the per-check budget (clamped like /v1/solve).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// StartWidth, WidthStep and RefineRounds set the session's §6.2
	// refinement strategy: the round-0 bit width, the width multiplier
	// between rounds, and the round bound.
	StartWidth   int `json:"start_width,omitempty"`
	WidthStep    int `json:"width_step,omitempty"`
	RefineRounds int `json:"refine_rounds,omitempty"`
	// Profile is prima (default) or secunda.
	Profile string `json:"profile,omitempty"`
	// Deterministic switches checks to virtual-time accounting.
	Deterministic bool `json:"deterministic,omitempty"`
	// MemoryBudgetBytes overrides the per-session memory ceiling
	// (capped by the server's SessionMemoryBudget; 0 selects the cap).
	MemoryBudgetBytes int64 `json:"memory_budget_bytes,omitempty"`
	// MeasureReplay makes every check also run the fresh-replay
	// reference and report the work both ways (benchmark harness mode).
	MeasureReplay bool `json:"measure_replay,omitempty"`
}

// SessionInfo is the wire form of a session's state.
type SessionInfo struct {
	ID            string `json:"id"`
	Depth         int    `json:"depth"`
	NumAssertions int    `json:"num_assertions"`
	Checks        int64  `json:"checks"`
	WorkUnits     int64  `json:"work_units"`
	MemoHits      int64  `json:"memo_hits"`
	ModelReuses   int64  `json:"model_reuses"`
	Rebuilds      int64  `json:"rebuilds"`
	Evictions     int64  `json:"evictions"`
	Bytes         int64  `json:"bytes"`
	ExpiresMS     int64  `json:"expires_in_ms"`
}

// SessionCheckResponse is one incremental check-sat verdict.
type SessionCheckResponse struct {
	ID            string            `json:"id"`
	Status        string            `json:"status"`
	Outcome       string            `json:"outcome,omitempty"`
	Model         map[string]string `json:"model,omitempty"`
	Width         int               `json:"width,omitempty"`
	Refined       int               `json:"refined,omitempty"`
	WorkUnits     int64             `json:"work_units"`
	ReplayUnits   int64             `json:"replay_units,omitempty"`
	Incremental   bool              `json:"incremental,omitempty"`
	Memoized      bool              `json:"memoized,omitempty"`
	ModelReused   bool              `json:"model_reused,omitempty"`
	Rebuilt       bool              `json:"rebuilt,omitempty"`
	Fallback      bool              `json:"fallback,omitempty"`
	Evicted       bool              `json:"evicted,omitempty"`
	Bytes         int64             `json:"bytes,omitempty"`
	Depth         int               `json:"depth"`
	NumAssertions int               `json:"num_assertions"`
	ElapsedMS     float64           `json:"elapsed_ms"`
}

// sessionConfig validates a create request and compiles it into a
// session.Config under the server's caps.
func (s *Server) sessionConfig(req SessionCreateRequest) (session.Config, error) {
	prof, err := solver.ParseProfile(req.Profile)
	if err != nil {
		return session.Config{}, err
	}
	if req.StartWidth < 0 || req.StartWidth > 1<<16 || req.WidthStep < 0 || req.RefineRounds < 0 {
		return session.Config{}, errors.New("refinement knobs out of range")
	}
	budget := s.cfg.SessionMemoryBudget
	if req.MemoryBudgetBytes > 0 && req.MemoryBudgetBytes < budget {
		budget = req.MemoryBudgetBytes
	}
	return session.Config{
		Timeout:       s.timeout(time.Duration(req.TimeoutMS) * time.Millisecond),
		StartWidth:    req.StartWidth,
		WidthStep:     req.WidthStep,
		RefineRounds:  req.RefineRounds,
		Profile:       prof,
		Deterministic: req.Deterministic,
		MemoryBudget:  budget,
		MeasureReplay: req.MeasureReplay,
	}, nil
}

// sessionTTL clamps a requested TTL into (0, SessionTTL].
func (s *Server) sessionTTL(ttlMS int64) time.Duration {
	d := time.Duration(ttlMS) * time.Millisecond
	if d <= 0 || d > s.cfg.SessionTTL {
		d = s.cfg.SessionTTL
	}
	return d
}

// sweepSessionsLocked expires idle sessions. Called with sessMu held by
// every session-table operation (lazy TTL: no background goroutine to
// leak or to race with shutdown).
func (s *Server) sweepSessionsLocked(now time.Time) {
	for id, e := range s.sessions {
		if now.After(e.expires) {
			delete(s.sessions, id)
			e.sess.Close()
			s.sessEvicted("ttl").Inc()
		}
	}
}

// enforceGlobalBudgetLocked keeps the summed accounting bytes of all
// sessions under SessionGlobalBudget: least-recently-used sessions
// first lose their solver state (cache only — their conversations
// remain intact), and if that is not enough whole LRU sessions are
// evicted. The most-recently-used session is never evicted outright.
func (s *Server) enforceGlobalBudgetLocked() {
	total := func() int64 {
		var n int64
		for _, e := range s.sessions {
			n += e.sess.MemoryBytes()
		}
		return n
	}
	if total() <= s.cfg.SessionGlobalBudget {
		return
	}
	for _, e := range s.lruOrderLocked() {
		e.sess.DropSolver("lru")
		if total() <= s.cfg.SessionGlobalBudget {
			return
		}
	}
	order := s.lruOrderLocked()
	for i, e := range order {
		if i == len(order)-1 {
			return
		}
		delete(s.sessions, e.id)
		e.sess.Close()
		s.sessEvicted("lru").Inc()
		if total() <= s.cfg.SessionGlobalBudget {
			return
		}
	}
}

// lruOrderLocked returns the table entries, least recently used first.
func (s *Server) lruOrderLocked() []*sessionEntry {
	out := make([]*sessionEntry, 0, len(s.sessions))
	for _, e := range s.sessions {
		out = append(out, e)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].lastUsed.Before(out[j-1].lastUsed); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// updateSessionGaugesLocked refreshes the live-count and byte gauges.
func (s *Server) updateSessionGaugesLocked() {
	s.sessLive.Set(int64(len(s.sessions)))
	var bytes int64
	for _, e := range s.sessions {
		bytes += e.sess.MemoryBytes()
	}
	s.sessBytes.Set(bytes)
}

// lookupSession sweeps, resolves id and slides its TTL. The returned
// entry is used outside sessMu: the session serializes internally, and
// a concurrent delete flips it to ErrClosed rather than corrupting it.
func (s *Server) lookupSession(id string) (*sessionEntry, bool) {
	now := time.Now()
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	s.sweepSessionsLocked(now)
	e, ok := s.sessions[id]
	if !ok {
		s.updateSessionGaugesLocked()
		return nil, false
	}
	e.lastUsed = now
	e.expires = now.Add(e.ttl) // sliding idle deadline
	s.updateSessionGaugesLocked()
	return e, true
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req SessionCreateRequest
	if len(body) > 0 {
		if err := decodeStrictJSON(string(body), &req); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	cfg, err := s.sessionConfig(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	now := time.Now()
	ttl := s.sessionTTL(req.TTLMS)
	sess := session.New(cfg)
	id := s.newSessionID()

	s.sessMu.Lock()
	s.sweepSessionsLocked(now)
	// Table full: the least-recently-used conversation yields.
	if len(s.sessions) >= s.cfg.MaxSessions {
		order := s.lruOrderLocked()
		victim := order[0]
		delete(s.sessions, victim.id)
		victim.sess.Close()
		s.sessEvicted("lru").Inc()
	}
	s.sessions[id] = &sessionEntry{id: id, sess: sess, ttl: ttl, expires: now.Add(ttl), lastUsed: now}
	s.enforceGlobalBudgetLocked()
	s.updateSessionGaugesLocked()
	s.sessMu.Unlock()
	s.sessCreated.Inc()

	writeJSON(w, http.StatusCreated, map[string]any{
		"id":         id,
		"ttl_ms":     ttl.Milliseconds(),
		"timeout_ms": cfg.Timeout.Milliseconds(),
	})
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookupSession(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.sessionInfo(e))
}

func (s *Server) sessionInfo(e *sessionEntry) SessionInfo {
	st := e.sess.Stats()
	return SessionInfo{
		ID:            e.id,
		Depth:         e.sess.Depth(),
		NumAssertions: e.sess.NumAssertions(),
		Checks:        st.Checks,
		WorkUnits:     st.Work,
		MemoHits:      st.MemoHits,
		ModelReuses:   st.ModelReuses,
		Rebuilds:      st.Rebuilds,
		Evictions:     st.Evictions,
		Bytes:         e.sess.MemoryBytes(),
		ExpiresMS:     time.Until(e.expires).Milliseconds(),
	}
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.sessMu.Lock()
	e, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
	}
	s.updateSessionGaugesLocked()
	s.sessMu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no session %q", id)
		return
	}
	e.sess.Close()
	s.sessDeleted.Inc()
	w.WriteHeader(http.StatusNoContent)
}

// handleSessionAssert feeds raw SMT-LIB commands (declarations, asserts,
// push/pop, define-fun — everything except checks and value queries)
// into the session.
func (s *Server) handleSessionAssert(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookupSession(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
		return
	}
	body, okBody := s.readBody(w, r)
	if !okBody {
		return
	}
	if err := e.sess.Feed(string(body)); err != nil {
		s.sessionError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id": e.id, "depth": e.sess.Depth(), "num_assertions": e.sess.NumAssertions(),
	})
}

type scopeRequest struct {
	N int `json:"n,omitempty"`
}

func (s *Server) handleSessionPush(w http.ResponseWriter, r *http.Request) {
	s.handleScope(w, r, func(e *sessionEntry, n int) error { return e.sess.Push(n) })
}

func (s *Server) handleSessionPop(w http.ResponseWriter, r *http.Request) {
	s.handleScope(w, r, func(e *sessionEntry, n int) error { return e.sess.Pop(n) })
}

func (s *Server) handleScope(w http.ResponseWriter, r *http.Request, op func(*sessionEntry, int) error) {
	e, ok := s.lookupSession(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
		return
	}
	body, okBody := s.readBody(w, r)
	if !okBody {
		return
	}
	req := scopeRequest{N: 1}
	if len(body) > 0 {
		if err := decodeStrictJSON(string(body), &req); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if req.N == 0 {
			req.N = 1
		}
	}
	if err := op(e, req.N); err != nil {
		s.sessionError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id": e.id, "depth": e.sess.Depth(), "num_assertions": e.sess.NumAssertions(),
	})
}

// handleSessionCheck decides the session's visible set. Deliberately
// outside admit(): a live conversation's check is never 429'd — it
// serializes on the session lock and its cost is bounded by the
// session's own budget regime.
func (s *Server) handleSessionCheck(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookupSession(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
		return
	}
	cfg := e.sess.Config()
	ctx, cancel := s.solveCtx(r, cfg.Timeout, cfg.Deterministic)
	defer cancel()
	t0 := time.Now()
	cr, err := e.sess.Check(ctx)
	if err != nil {
		s.sessionError(w, err)
		return
	}
	s.latency.Observe(time.Since(t0))

	// The check may have grown the session; re-apply the global ceiling.
	s.sessMu.Lock()
	s.enforceGlobalBudgetLocked()
	s.updateSessionGaugesLocked()
	s.sessMu.Unlock()

	resp := SessionCheckResponse{
		ID:            e.id,
		Status:        cr.Status.String(),
		Outcome:       cr.Outcome.String(),
		Width:         cr.Width,
		Refined:       cr.Refined,
		WorkUnits:     cr.Work,
		ReplayUnits:   cr.ReplayWork,
		Incremental:   cr.Incremental,
		Memoized:      cr.Memoized,
		ModelReused:   cr.ModelReused,
		Rebuilt:       cr.Rebuilt,
		Fallback:      cr.Fallback,
		Evicted:       cr.Evicted,
		Bytes:         cr.Bytes,
		Depth:         e.sess.Depth(),
		NumAssertions: e.sess.NumAssertions(),
		ElapsedMS:     ms(cr.Elapsed),
	}
	if len(cr.Model) > 0 {
		resp.Model = modelMap(cr.Model)
	}
	writeJSON(w, http.StatusOK, resp)
}

// sessionError maps session-core errors onto HTTP codes: a closed
// session (deleted or evicted mid-request) is 410, everything else is
// the client's 400 (over-pop, bad SMT-LIB, checks fed to assert).
func (s *Server) sessionError(w http.ResponseWriter, err error) {
	if err == session.ErrClosed {
		writeError(w, http.StatusGone, "session closed")
		return
	}
	writeError(w, http.StatusBadRequest, "%v", err)
}

// newSessionID mints a table key. IDs are process-unique, not secrets:
// the service runs inside a trust boundary like /v1/solve itself.
func (s *Server) newSessionID() string {
	return fmt.Sprintf("s%06d", s.sessID.Add(1))
}

// sessionTierState is the session block shared by /healthz and /stats.
func (s *Server) sessionTierState() map[string]any {
	now := time.Now()
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	s.sweepSessionsLocked(now)
	s.updateSessionGaugesLocked()
	return map[string]any{
		"live":        len(s.sessions),
		"bytes":       s.sessBytes.Value(),
		"capacity":    s.cfg.MaxSessions,
		"created":     s.sessCreated.Value(),
		"deleted":     s.sessDeleted.Value(),
		"evicted_ttl": s.sessEvicted("ttl").Value(),
		"evicted_lru": s.sessEvicted("lru").Value(),
	}
}

// CloseSessions closes every live session (shutdown path).
func (s *Server) CloseSessions() {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	for id, e := range s.sessions {
		delete(s.sessions, id)
		e.sess.Close()
	}
	s.updateSessionGaugesLocked()
}
