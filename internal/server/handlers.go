package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"staub/internal/chaos"
	"staub/internal/core"
	"staub/internal/engine"
	"staub/internal/eval"
	"staub/internal/pipeline"
	"staub/internal/smt"
	"staub/internal/solver"
	"staub/internal/status"
)

// SolveRequest is the decoded body of POST /v1/solve. The constraint is
// an SMT-LIB 2 script; the remaining knobs mirror the staub CLI flags.
// Query parameters (mode, profile, timeout, width, deterministic, trace,
// over and cube_vars) override the body fields, so curl users can post a
// raw .smt2 file and steer the solve from the URL. Unknown JSON fields
// and query parameters are ignored.
type SolveRequest struct {
	Constraint string `json:"constraint"`
	// Mode is pipeline (default), portfolio, or solve (the unmodified
	// unbounded solver, the paper's baseline).
	Mode string `json:"mode,omitempty"`
	// Profile is prima (default) or secunda.
	Profile string `json:"profile,omitempty"`
	// TimeoutMS is the per-solve budget in milliseconds (0: server
	// default; values above the server cap are clamped).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Width forces a fixed bit width (0: infer via abstract
	// interpretation).
	Width int `json:"width,omitempty"`
	// Deterministic switches the solve to virtual-time accounting: the
	// budget is a deterministic work count instead of a wall-clock
	// deadline, so the verdict and reported cost are identical across
	// runs and machines (the experiment harness's measurement mode).
	Deterministic bool `json:"deterministic,omitempty"`
	// Trace asks for the ordered per-stage span list of the pipeline run
	// in the response (pipeline/portfolio modes; off by default).
	Trace bool `json:"trace,omitempty"`
	// CubeVars, when positive, solves the bounded form by
	// cube-and-conquer: 2^CubeVars assumption cubes raced with
	// LBD-filtered clause sharing (pipeline mode replaces the bounded
	// solve; portfolio mode adds a racing cube leg).
	CubeVars int `json:"cube_vars,omitempty"`
	// Over runs the over-approximation leg: linearized nonlinear
	// multiplication plus a-priori bound certificates, whose
	// bounded-unsat is a sound unsat (pipeline mode runs that leg alone;
	// portfolio mode adds it as a racing leg).
	Over bool `json:"over,omitempty"`
}

// BatchRequest is the decoded body of POST /v1/batch: the knobs of
// SolveRequest applied to every constraint. The embedded request's own
// constraint field is ignored.
type BatchRequest struct {
	Constraints []string `json:"constraints"`
	SolveRequest
}

// CostSplit is the paper's per-solve cost decomposition.
type CostSplit struct {
	TransMS float64 `json:"t_trans_ms"`
	PostMS  float64 `json:"t_post_ms"`
	CheckMS float64 `json:"t_check_ms"`
	TotalMS float64 `json:"t_total_ms"`
}

// SolveResponse is one solved constraint.
type SolveResponse struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	// Outcome is the Figure 6 classification for pipeline/portfolio
	// solves, or "unbounded-<status>" for mode=solve.
	Outcome   string            `json:"outcome,omitempty"`
	Model     map[string]string `json:"model,omitempty"`
	CacheHit  bool              `json:"cache_hit"`
	TimedOut  bool              `json:"timed_out,omitempty"`
	FromSTAUB bool              `json:"from_staub,omitempty"`
	// FromOver marks a portfolio verdict delivered by the
	// over-approximation leg (a sound unsat or a verified sat).
	FromOver bool `json:"from_over,omitempty"`
	// Direction is the approximation direction of the winning pipeline
	// chain — "under", "over" or "exact" — for pipeline/portfolio
	// solves; it is what makes an unsat verdict sound.
	Direction string    `json:"direction,omitempty"`
	Width     int       `json:"width,omitempty"`
	Refined   int       `json:"refined,omitempty"`
	Cost      CostSplit `json:"cost"`
	ElapsedMS float64   `json:"elapsed_ms"`
	// Degraded marks a portfolio answer delivered by the unbounded leg
	// after the STAUB leg faulted (panic, stall, budget exhaustion).
	Degraded bool `json:"degraded,omitempty"`
	// Retried reports that a transient fault triggered the single
	// automatic retry before this result.
	Retried bool `json:"retried,omitempty"`
	// Error describes a contained fault (or a per-item parse failure in a
	// batch); empty for clean results.
	Error string `json:"error,omitempty"`
	// Trace is the ordered per-stage span list of the pipeline run,
	// present only when the request set trace.
	Trace []TraceSpan `json:"trace,omitempty"`
}

// TraceSpan is one pipeline stage execution on the wire.
type TraceSpan struct {
	Pass      string  `json:"pass"`
	Round     int     `json:"round,omitempty"`
	WorkUnits int64   `json:"work_units,omitempty"`
	WallMS    float64 `json:"wall_ms"`
	VirtualMS float64 `json:"virtual_ms,omitempty"`
	Note      string  `json:"note,omitempty"`
}

// BatchResponse carries batch results in submission order.
type BatchResponse struct {
	ID      string          `json:"id"`
	Count   int             `json:"count"`
	Results []SolveResponse `json:"results"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// decodeStrictJSON decodes body into v, rejecting trailing data.
func decodeStrictJSON(body string, v any) error {
	dec := json.NewDecoder(strings.NewReader(body))
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	if dec.More() {
		return errors.New("invalid JSON body: trailing data")
	}
	return nil
}

// decodeSolveRequest parses a /v1/solve body plus query parameters into a
// SolveRequest. A JSON content type (or a body that looks like a JSON
// object) selects the JSON form; anything else is taken as a raw SMT-LIB
// script, which keeps `curl --data-binary @file.smt2` one-linable.
func decodeSolveRequest(contentType string, body []byte, query url.Values) (SolveRequest, error) {
	var req SolveRequest
	trimmed := strings.TrimSpace(string(body))
	if strings.Contains(contentType, "json") || strings.HasPrefix(trimmed, "{") {
		if err := decodeStrictJSON(trimmed, &req); err != nil {
			return req, err
		}
	} else {
		req.Constraint = string(body)
	}
	return req, req.applyQuery(query, req.Constraint == "")
}

// decodeBatchRequest parses a /v1/batch body (always JSON) plus query
// parameters.
func decodeBatchRequest(body []byte, query url.Values) (BatchRequest, error) {
	var req BatchRequest
	if err := decodeStrictJSON(string(body), &req); err != nil {
		return req, err
	}
	return req, req.applyQuery(query, len(req.Constraints) == 0)
}

// applyQuery overlays URL query parameters onto the decoded body fields,
// then rejects an empty constraint and out-of-range knobs before any
// solving.
func (r *SolveRequest) applyQuery(query url.Values, emptyConstraint bool) error {
	if v := query.Get("mode"); v != "" {
		r.Mode = v
	}
	if v := query.Get("profile"); v != "" {
		r.Profile = v
	}
	if v := query.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			return fmt.Errorf("invalid timeout parameter %q: %v", v, err)
		}
		r.TimeoutMS = d.Milliseconds()
	}
	if v := query.Get("width"); v != "" {
		if _, err := fmt.Sscanf(v, "%d", &r.Width); err != nil {
			return fmt.Errorf("invalid width parameter %q", v)
		}
	}
	for _, p := range []struct {
		name string
		dst  *bool
	}{{"deterministic", &r.Deterministic}, {"trace", &r.Trace}, {"over", &r.Over}} {
		if v := query.Get(p.name); v != "" {
			*p.dst = v == "1" || v == "true"
		}
	}
	if v := query.Get("cube_vars"); v != "" {
		if _, err := fmt.Sscanf(v, "%d", &r.CubeVars); err != nil {
			return fmt.Errorf("invalid cube_vars parameter %q", v)
		}
	}

	if emptyConstraint {
		return errors.New("empty constraint")
	}
	switch r.Mode {
	case "", "pipeline", "portfolio", "solve":
	default:
		return fmt.Errorf("unknown mode %q (want pipeline, portfolio or solve)", r.Mode)
	}
	if _, err := solver.ParseProfile(r.Profile); err != nil {
		return err
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("negative timeout_ms %d", r.TimeoutMS)
	}
	if r.Width < 0 || r.Width > 1<<16 {
		return fmt.Errorf("width %d out of range", r.Width)
	}
	if r.CubeVars < 0 || r.CubeVars > 12 {
		return fmt.Errorf("cube_vars %d out of range (0..12)", r.CubeVars)
	}
	return nil
}

// timeout clamps a requested budget into (0, MaxTimeout]; zero or less
// selects DefaultTimeout.
func (s *Server) timeout(d time.Duration) time.Duration {
	if d <= 0 {
		d = s.cfg.DefaultTimeout
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// job compiles a validated request and its parsed constraint into an
// engine job under the server's caps and defaults: the clamped budget,
// the server-wide cube_vars for a request that names none of its own, and
// the server-wide over leg, which a request can add but not remove.
func (s *Server) job(c *smt.Constraint, req SolveRequest) engine.Job {
	prof, _ := solver.ParseProfile(req.Profile) // validated by applyQuery
	cfg := core.Config{
		Timeout:       s.timeout(time.Duration(req.TimeoutMS) * time.Millisecond),
		Profile:       prof,
		FixedWidth:    req.Width,
		Deterministic: req.Deterministic,
		Trace:         req.Trace,
		CubeVars:      req.CubeVars,
		OverApprox:    req.Over || s.cfg.OverApprox,
	}
	if cfg.CubeVars == 0 {
		cfg.CubeVars = s.cfg.CubeVars
	}
	kind := engine.KindPipeline
	switch req.Mode {
	case "solve":
		kind = engine.KindSolve
	case "portfolio":
		kind = engine.KindPortfolio
	}
	return engine.Job{Kind: kind, Constraint: c, Config: cfg}
}

// buildResponse classifies an engine result into the wire format and
// bumps the per-outcome counter, plus the fault/degradation counters
// (and the /healthz degraded window) when the result carries a contained
// fault.
func (s *Server) buildResponse(id string, j engine.Job, res engine.Result, elapsed time.Duration) SolveResponse {
	out := SolveResponse{ID: id, CacheHit: res.CacheHit, ElapsedMS: ms(elapsed)}
	if res.Fault != "" {
		out.Error = res.Err
		s.faultedSolves.Inc()
		s.noteFault()
	}
	switch j.Kind {
	case engine.KindSolve:
		out.Status = res.Solve.Status.String()
		out.Outcome = "unbounded-" + out.Status
		out.TimedOut = res.Solve.TimedOut
		if res.Solve.Status == status.Sat {
			out.Model = modelMap(res.Solve.Model)
		}
	case engine.KindPortfolio:
		p := res.Portfolio
		out.Status = p.Status.String()
		out.Outcome = p.Pipeline.Outcome.String()
		out.FromSTAUB = p.FromSTAUB
		out.FromOver = p.FromOver
		out.Direction = p.Pipeline.Direction.String()
		out.Width = p.Pipeline.Width
		out.Refined = p.Pipeline.Refined
		out.Cost = costSplit(p.Pipeline)
		out.Trace = traceSpans(p.Pipeline)
		out.Degraded = p.Degraded
		if p.Degraded {
			s.degradedSolves.Inc()
			s.noteFault()
			if out.Error == "" && p.Pipeline.Fault != "" {
				out.Error = "staub leg fault: " + p.Pipeline.Fault
			}
		}
		if p.Status == status.Sat {
			out.Model = modelMap(p.Model)
		}
	default:
		p := res.Pipeline
		out.Status = p.Status.String()
		out.Outcome = p.Outcome.String()
		out.Direction = p.Direction.String()
		out.TimedOut = p.Outcome == core.OutcomeBoundedUnknown
		out.Width = p.Width
		out.Refined = p.Refined
		out.Cost = costSplit(p)
		out.Trace = traceSpans(p)
		if p.Status == status.Sat {
			out.Model = modelMap(p.Model)
		}
	}
	s.solves(out.Outcome).Inc()
	return out
}

func costSplit(p core.PipelineResult) CostSplit {
	return CostSplit{
		TransMS: ms(p.TTrans),
		PostMS:  ms(p.TPost),
		CheckMS: ms(p.TCheck),
		TotalMS: ms(p.Total),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// traceSpans renders a pipeline trace (empty unless the job asked for
// tracing) for the wire.
func traceSpans(p core.PipelineResult) []TraceSpan {
	if len(p.Trace) == 0 {
		return nil
	}
	out := make([]TraceSpan, len(p.Trace))
	for i, sp := range p.Trace {
		out[i] = TraceSpan{
			Pass:      sp.Pass,
			Round:     sp.Round,
			WorkUnits: sp.Work,
			WallMS:    ms(sp.Wall),
			VirtualMS: ms(sp.Virtual),
			Note:      sp.Note,
		}
	}
	return out
}

// modelMap renders a verified assignment for the wire.
func modelMap(m eval.Assignment) map[string]string {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]string, len(m))
	for name, v := range m {
		out[name] = v.String()
	}
	return out
}

// writeJSON writes v as the response body with the given code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// readBody reads the request body under the configured size limit.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", s.cfg.MaxRequestBytes)
		} else {
			writeError(w, http.StatusBadRequest, "reading body: %v", err)
		}
		return nil, false
	}
	return body, true
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	req, err := decodeSolveRequest(r.Header.Get("Content-Type"), body, r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	c, err := smt.ParseScript(req.Constraint)
	if err != nil {
		// Parser errors carry the line:column position of the defect.
		writeError(w, http.StatusBadRequest, "parsing constraint: %v", err)
		return
	}
	job := s.job(c, req)
	if !s.admit(1) {
		w.Header().Set("Retry-After", retryAfter(job.Config.Timeout))
		writeError(w, http.StatusTooManyRequests,
			"saturated: %d solves admitted (limit %d)", s.Admitted(), s.limit)
		return
	}
	defer s.release(1)
	chaos.PanicAt("server:solve")
	ctx, cancel := s.solveCtx(r, job.Config.Timeout, job.Config.Deterministic)
	defer cancel()
	t0 := time.Now()
	res, ran, retried := s.solveWithRetry(ctx, job)
	if !ran {
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded while queued")
		return
	}
	// A contained panic with no graceful answer (a portfolio degrades to
	// its unbounded leg instead) is this request's internal error.
	if res.Fault == pipeline.FaultPanic && job.Kind != engine.KindPortfolio {
		s.faultedSolves.Inc()
		s.noteFault()
		writeError(w, http.StatusInternalServerError,
			"internal error (request %s): %s", requestID(r.Context()), res.Err)
		return
	}
	resp := s.buildResponse(requestID(r.Context()), job, res, time.Since(t0))
	resp.Retried = retried
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	req, err := decodeBatchRequest(body, r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.Constraints) > s.cfg.MaxBatch {
		writeError(w, http.StatusBadRequest,
			"batch of %d exceeds limit %d", len(req.Constraints), s.cfg.MaxBatch)
		return
	}
	id := requestID(r.Context())
	out := BatchResponse{ID: id, Count: len(req.Constraints), Results: make([]SolveResponse, len(req.Constraints))}
	// Per-item parse isolation: one malformed constraint becomes an error
	// entry in its slot instead of failing its well-formed siblings with a
	// whole-batch 400.
	jobs := make([]engine.Job, len(req.Constraints))
	valid := make([]int, 0, len(req.Constraints))
	for i, src := range req.Constraints {
		c, err := smt.ParseScript(src)
		if err != nil {
			out.Results[i] = SolveResponse{
				ID:      fmt.Sprintf("%s/%d", id, i),
				Status:  status.Unknown.String(),
				Outcome: "parse-error",
				Error:   fmt.Sprintf("parsing constraint %d: %v", i, err),
			}
			continue
		}
		jobs[i] = s.job(c, req.SolveRequest)
		valid = append(valid, i)
	}
	if len(valid) == 0 {
		writeJSON(w, http.StatusOK, out)
		return
	}
	cfg := jobs[valid[0]].Config
	n := int64(len(valid))
	// All-or-nothing admission over the solvable subset keeps a partially
	// admitted batch from occupying capacity while its rejected remainder
	// fails the request.
	if !s.admit(n) {
		w.Header().Set("Retry-After", retryAfter(cfg.Timeout))
		writeError(w, http.StatusTooManyRequests,
			"saturated: batch of %d does not fit (admitted %d, limit %d)", n, s.Admitted(), s.limit)
		return
	}
	ctx, cancel := s.solveCtx(r, cfg.Timeout, cfg.Deterministic)
	defer cancel()
	done := make(chan int, len(valid))
	for _, i := range valid {
		go func(i int) {
			defer func() { done <- i }()
			defer s.release(1)
			job := jobs[i]
			jt0 := time.Now()
			res, ran, retried := s.solveWithRetry(ctx, job)
			if !ran {
				out.Results[i] = SolveResponse{
					ID:      fmt.Sprintf("%s/%d", id, i),
					Status:  status.Unknown.String(),
					Outcome: "queued-past-deadline",
				}
				return
			}
			// A faulted item degrades to an error entry in its slot (the
			// batch itself stays 200); buildResponse records the fault.
			r := s.buildResponse(fmt.Sprintf("%s/%d", id, i), job, res, time.Since(jt0))
			r.Retried = retried
			out.Results[i] = r
		}(i)
	}
	for range valid {
		<-done
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status": "draining", "version": s.cfg.Version,
		})
		return
	}
	// "degraded" keeps the 200 (the instance still serves — load balancers
	// should not eject it) but tells operators it contained faults within
	// the configured window, with the counters to triage them.
	st := "ok"
	if s.degraded() {
		st = "degraded"
	}
	out := map[string]any{
		"status":           st,
		"version":          s.cfg.Version,
		"recovered_panics": s.recoveredPanics.Value(),
		"faulted_solves":   s.faultedSolves.Value(),
		"degraded_solves":  s.degradedSolves.Value(),
		"worker_panics":    s.eng.WorkerPanics(),
		"retries":          s.retries.Value(),
		"sessions":         s.sessionTierState(),
	}
	if s.pool != nil {
		out["pool"] = s.pool.Stats()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WriteText(w)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{
		"uptime_seconds": time.Since(s.start).Seconds(),
		"workers":        s.eng.Workers(),
		"queue_capacity": s.cfg.QueueDepth,
		"admitted":       s.Admitted(),
		"in_flight":      s.eng.InFlight(),
		"draining":       s.Draining(),
		"version":        s.cfg.Version,
		"sessions":       s.sessionTierState(),
		"metrics":        s.reg.Snapshot(),
	}
	if s.pool != nil {
		out["pool"] = s.pool.Stats()
	}
	writeJSON(w, http.StatusOK, out)
}

// retryAfter suggests when a rejected client should try again: roughly
// one solve budget, rounded up to a whole second.
func retryAfter(timeout time.Duration) string {
	secs := int(timeout.Seconds() + 0.999)
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprint(secs)
}
