// Package server exposes the STAUB solve pipeline as a long-running HTTP
// JSON service. Every request is routed through one shared engine (worker
// semantics, solve cache, in-flight accounting) so concurrent clients
// deduplicate identical work, and every response is classified with the
// paper's outcome taxonomy (Figure 6) and cost split (TTrans/TPost/TCheck).
//
// Production behaviors live here rather than in the binary so they are
// testable with httptest:
//
//   - Admission control: at most Workers solves run concurrently and at
//     most QueueDepth more may wait; a request beyond that is rejected
//     immediately with 429 and a Retry-After hint instead of queuing
//     unboundedly (fail fast under overload).
//   - Deadlines: the per-request time budget is carried by the request
//     context through the queue and into the engine, so a request that
//     waited out its budget in the queue never starts solving.
//   - Observability: a metrics.Registry collects solve outcomes, cache
//     effectiveness, queue depth, in-flight and latency, exposed as a text
//     exposition (GET /metrics) and a JSON snapshot (GET /stats); every
//     request gets an ID and a structured log line.
//   - Graceful shutdown: BeginDrain flips /healthz to 503 so load
//     balancers stop sending traffic, http.Server.Shutdown drains
//     in-flight requests, and Abort cancels stragglers' solve contexts.
//
// Endpoints: POST /v1/solve, POST /v1/batch, GET /healthz, GET /metrics,
// GET /stats.
package server

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"staub/internal/engine"
	"staub/internal/metrics"
	"staub/internal/pipeline"
	"staub/internal/pool"
)

// Config configures a Server. The zero value is usable: every field has a
// production default.
type Config struct {
	// Workers bounds concurrent solves (≤ 0 selects GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests waiting for a solve slot beyond the
	// Workers already running; the queue full, requests are rejected with
	// 429 (default 64).
	QueueDepth int
	// MaxRequestBytes bounds request bodies (default 1 MiB).
	MaxRequestBytes int64
	// DefaultTimeout is the per-solve budget when the request names none
	// (default 2s, core.Config's default).
	DefaultTimeout time.Duration
	// MaxTimeout caps the budget a request may ask for (default 30s).
	MaxTimeout time.Duration
	// MaxBatch bounds the constraints of one /v1/batch request
	// (default 64).
	MaxBatch int
	// SessionTTL is the idle lifetime of a stateful session; every
	// session operation slides the deadline forward (default 10m).
	SessionTTL time.Duration
	// MaxSessions bounds live sessions; creating one past the bound
	// evicts the least-recently-used session (default 256).
	MaxSessions int
	// SessionMemoryBudget is the per-session memory ceiling handed to
	// session.Config (default 64 MiB).
	SessionMemoryBudget int64
	// SessionGlobalBudget caps the summed accounting bytes of all live
	// sessions; past it, least-recently-used sessions first lose their
	// solver state and then are evicted outright (default 256 MiB).
	SessionGlobalBudget int64
	// DegradedWindow is how long after the most recent contained fault
	// /healthz keeps reporting status "degraded" (default 5m). Load
	// balancers can use it to distinguish "up" from "up but shedding
	// faults" without taking the instance out of rotation.
	DegradedWindow time.Duration
	// CubeVars is the server-wide default cube-and-conquer split, applied
	// to requests that name no cube_vars of their own (default 0:
	// sequential solving unless a request asks).
	CubeVars int
	// OverApprox makes every pipeline/portfolio request run the
	// over-approximation leg by default; individual requests can still
	// opt in per-request with over=true (they cannot opt out of a
	// server-wide default — the leg only ever adds a way to win).
	OverApprox bool
	// PoolSelf is this node's advertised base URL in a peer pool
	// (empty: pooling disabled, the server is standalone).
	PoolSelf string
	// PoolPeers is the pool membership (PoolSelf is added if missing).
	// With fewer than two distinct members the pool is not installed and
	// the server behaves byte-identically to a standalone one.
	PoolPeers []string
	// Pool tunes the peer pool beyond membership (breakers, hedging,
	// retries, health cadence); Self/Peers/Seed are overridden by
	// PoolSelf/PoolPeers/JitterSeed.
	Pool pool.Config
	// CacheEntries bounds the engine solve cache to an LRU of this many
	// memoized results (0: unbounded, the standalone default).
	CacheEntries int
	// JitterSeed seeds the deterministic backoff jitter stream shared by
	// the transient-fault retry and the pool's peer retries, making
	// backoff schedules reproducible across runs.
	JitterSeed int64
	// Version is reported by /healthz and the X-Staub-Version header.
	Version string
	// Log receives one structured line per request (nil: standard logger).
	Log *log.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 1 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.DegradedWindow <= 0 {
		c.DegradedWindow = 5 * time.Minute
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 10 * time.Minute
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	if c.SessionMemoryBudget <= 0 {
		c.SessionMemoryBudget = 64 << 20
	}
	if c.SessionGlobalBudget <= 0 {
		c.SessionGlobalBudget = 256 << 20
	}
	if c.Log == nil {
		c.Log = log.Default()
	}
	return c
}

// Server is the solve service. Create with New, serve s.Handler().
type Server struct {
	cfg   Config
	eng   *engine.Engine
	reg   *metrics.Registry
	start time.Time

	// Admission control: admitted counts requests that passed admission
	// (waiting + solving) and may not exceed limit; slots bounds the
	// solving subset to the engine's worker count.
	admitted atomic.Int64
	limit    int64
	slots    chan struct{}

	queued   metrics.Gauge // admitted requests waiting for a slot
	rejected *metrics.Counter
	solves   func(outcome string) *metrics.Counter
	latency  *metrics.Histogram
	requests func(path string, code int) *metrics.Counter

	// Fault containment accounting: lastFault timestamps the most recent
	// contained fault (for /healthz's degraded window); the counters split
	// faults by where they were contained.
	lastFault       atomic.Int64 // unix nanos; 0 = never
	recoveredPanics *metrics.Counter
	faultedSolves   *metrics.Counter
	degradedSolves  *metrics.Counter
	retries         *metrics.Counter

	// Session tier: the table of live stateful conversations, guarded by
	// sessMu. Checks run outside the lock (each session serializes
	// internally), so table maintenance never blocks on a solve.
	sessMu      sync.Mutex
	sessions    map[string]*sessionEntry
	sessID      atomic.Int64
	sessLive    metrics.Gauge
	sessBytes   metrics.Gauge
	sessCreated *metrics.Counter
	sessDeleted *metrics.Counter
	sessEvicted func(reason string) *metrics.Counter

	// Distributed tier: the peer pool (nil when standalone) and the
	// deterministic jitter stream shared by retry backoffs.
	pool   *pool.Pool
	jitter *pool.JitterStream

	reqID    atomic.Int64
	draining atomic.Bool

	// hardCtx is cancelled by Abort to interrupt in-flight solves during
	// a forced shutdown.
	hardCtx    context.Context
	hardCancel context.CancelFunc

	mux *http.ServeMux
}

// New returns a ready Server with its own engine, solve cache and metrics
// registry. The registry holds only this server's series; it renders the
// package-level families of metrics.Process beside them.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	eng := engine.New(cfg.Workers, engine.NewCacheWithLimit(cfg.CacheEntries))
	reg := metrics.NewRegistry()
	eng.Register(reg)

	s := &Server{
		cfg:      cfg,
		eng:      eng,
		reg:      reg,
		start:    time.Now(),
		limit:    int64(eng.Workers() + cfg.QueueDepth),
		slots:    make(chan struct{}, eng.Workers()),
		sessions: map[string]*sessionEntry{},
		jitter:   pool.NewJitterStream(cfg.JitterSeed),
	}
	s.hardCtx, s.hardCancel = context.WithCancel(context.Background())

	// Peer pool: installed only when configured with at least one peer
	// besides self; a degenerate membership leaves the server standalone
	// (the 1-node pool is byte-identical to no pool).
	if cfg.PoolSelf != "" {
		pc := cfg.Pool
		pc.Self = cfg.PoolSelf
		pc.Peers = cfg.PoolPeers
		pc.Seed = cfg.JitterSeed
		if pc.Log == nil {
			pc.Log = cfg.Log
		}
		if p, err := pool.New(pc); err != nil {
			cfg.Log.Printf("pool: disabled: %v", err)
		} else {
			s.pool = p
			p.Register(reg)
			eng.Cache().SetRemote(p.Remote())
		}
	}

	reg.RegisterGauge("staub_queue_depth", nil, &s.queued)
	reg.RegisterGauge("staub_session_live", nil, &s.sessLive)
	reg.RegisterGauge("staub_session_bytes", nil, &s.sessBytes)
	s.sessCreated = reg.Counter("staub_session_created_total", nil)
	s.sessDeleted = reg.Counter("staub_session_deleted_total", nil)
	s.sessEvicted = func(reason string) *metrics.Counter {
		return reg.Counter("staub_session_evictions_total", metrics.Labels{"reason": reason})
	}
	s.rejected = reg.Counter("staub_rejected_total", nil)
	s.latency = reg.Histogram("staub_solve_latency_seconds")
	s.recoveredPanics = reg.Counter("staub_server_panics_total", nil)
	s.faultedSolves = reg.Counter("staub_server_faulted_solves_total", nil)
	s.degradedSolves = reg.Counter("staub_server_degraded_solves_total", nil)
	s.retries = reg.Counter("staub_server_retries_total", nil)
	s.solves = func(outcome string) *metrics.Counter {
		return reg.Counter("staub_solves_total", metrics.Labels{"outcome": outcome})
	}
	s.requests = func(path string, code int) *metrics.Counter {
		return reg.Counter("staub_http_requests_total",
			metrics.Labels{"path": path, "code": fmt.Sprint(code)})
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/session", s.handleSessionCreate)
	s.mux.HandleFunc("GET /v1/session/{id}", s.handleSessionGet)
	s.mux.HandleFunc("DELETE /v1/session/{id}", s.handleSessionDelete)
	s.mux.HandleFunc("POST /v1/session/{id}/assert", s.handleSessionAssert)
	s.mux.HandleFunc("POST /v1/session/{id}/push", s.handleSessionPush)
	s.mux.HandleFunc("POST /v1/session/{id}/pop", s.handleSessionPop)
	s.mux.HandleFunc("POST /v1/session/{id}/check", s.handleSessionCheck)
	s.mux.HandleFunc("POST /v1/peer/solve", s.handlePeerSolve)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	return s
}

// Handler returns the server's HTTP handler with request-ID assignment,
// per-request logging and a panic-recovery boundary wrapped around the
// routes: a handler panic is logged with its stack and answered with a
// 500 carrying the request ID, and the process stays up.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("r%06d", s.reqID.Add(1))
		w.Header().Set("X-Request-Id", id)
		if s.cfg.Version != "" {
			w.Header().Set("X-Staub-Version", s.cfg.Version)
		}
		rw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		r = r.WithContext(context.WithValue(r.Context(), reqIDKey{}, id))
		t0 := time.Now()
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					s.recoveredPanics.Inc()
					s.noteFault()
					s.cfg.Log.Printf("id=%s panic recovered: %v\n%s", id, rec, debug.Stack())
					if !rw.wrote {
						writeError(rw, http.StatusInternalServerError,
							"internal error (request %s)", id)
					}
				}
			}()
			s.mux.ServeHTTP(rw, r)
		}()
		s.requests(r.URL.Path, rw.code).Inc()
		s.cfg.Log.Printf("id=%s method=%s path=%s code=%d bytes=%d dur=%s",
			id, r.Method, r.URL.Path, rw.code, rw.bytes, time.Since(t0).Round(time.Microsecond))
	})
}

// noteFault timestamps a contained fault for /healthz's degraded window.
func (s *Server) noteFault() { s.lastFault.Store(time.Now().UnixNano()) }

// degraded reports whether a contained fault happened within the
// configured degraded window.
func (s *Server) degraded() bool {
	last := s.lastFault.Load()
	return last > 0 && time.Since(time.Unix(0, last)) < s.cfg.DegradedWindow
}

// Registry exposes the server's metrics registry (tests and embedders).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Pool exposes the server's peer pool (nil when standalone).
func (s *Server) Pool() *pool.Pool { return s.pool }

// StartPool launches the pool's background health prober. Call it once
// the server is listening (so peers probing back get answers); a no-op
// when standalone.
func (s *Server) StartPool() {
	if s.pool != nil {
		s.pool.Start()
	}
}

// Close releases the server's background resources (today: the pool
// health prober). Safe to call more than once and when standalone.
func (s *Server) Close() {
	if s.pool != nil {
		s.pool.Close()
	}
}

// Engine exposes the server's engine (tests and embedders).
func (s *Server) Engine() *engine.Engine { return s.eng }

// Admitted reports requests currently past admission (waiting + solving).
func (s *Server) Admitted() int64 { return s.admitted.Load() }

// BeginDrain marks the server draining: /healthz turns 503 so load
// balancers take the instance out of rotation. Already-accepted requests
// keep running; pair with http.Server.Shutdown to drain them.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Abort cancels the solve context of every in-flight request — the
// second-signal hard stop after a drain has waited long enough.
func (s *Server) Abort() { s.hardCancel() }

// admit reserves n units of queue+solve capacity, failing fast (no
// blocking) when the service is saturated.
func (s *Server) admit(n int64) bool {
	for {
		cur := s.admitted.Load()
		if cur+n > s.limit {
			s.rejected.Inc()
			return false
		}
		if s.admitted.CompareAndSwap(cur, cur+n) {
			return true
		}
	}
}

// release returns n units of admitted capacity.
func (s *Server) release(n int64) { s.admitted.Add(-n) }

// runJob takes one admitted job through the queue and the engine. The
// caller must have admitted it and owns the admission slot (releasing
// stays with the caller so a transient-fault retry can reuse it). The
// bool reports whether the job ran (false: the deadline fired while the
// job was still queued). localOnly bypasses the cache's remote tier —
// the peer-solve endpoint sets it so a routed job is never re-routed.
func (s *Server) runJob(ctx context.Context, j engine.Job, localOnly bool) (engine.Result, bool) {
	s.queued.Inc()
	select {
	case s.slots <- struct{}{}:
		s.queued.Dec()
	case <-ctx.Done():
		s.queued.Dec()
		return engine.Result{}, false
	}
	defer func() { <-s.slots }()
	// A slot and the cancellation can become ready together (e.g. Abort
	// interrupts the slot holder while this request is queued); the select
	// then picks either branch. Re-check so a cancelled request never
	// counts as having run.
	if ctx.Err() != nil {
		return engine.Result{}, false
	}
	t0 := time.Now()
	var res engine.Result
	if localOnly {
		res = s.eng.SolveLocal(ctx, j)
	} else {
		res = s.eng.Solve(ctx, j)
	}
	s.latency.Observe(time.Since(t0))
	return res, true
}

// solveWithRetry runs the job, retrying once after a short jittered
// backoff when the result is a transient fault (chaos-injected or
// otherwise marked retryable). The backoff comes from the server's
// seed-deterministic jitter stream, so a fixed -jitter-seed reproduces
// the exact retry schedule of a run. The third return reports that a
// retry happened; the caller still owns the admission slot throughout.
func (s *Server) solveWithRetry(ctx context.Context, j engine.Job) (engine.Result, bool, bool) {
	res, ran := s.runJob(ctx, j, false)
	if !ran || !res.Transient {
		return res, ran, false
	}
	s.retries.Inc()
	backoff := s.jitter.Between(5*time.Millisecond, 25*time.Millisecond)
	select {
	case <-time.After(backoff):
	case <-ctx.Done():
		return res, true, false
	}
	retry, ran2 := s.runJob(ctx, j, false)
	if !ran2 {
		// The deadline fired during the backoff; report the first attempt.
		return res, true, true
	}
	return retry, true, true
}

type reqIDKey struct{}

// requestID returns the ID the Handler wrapper assigned.
func requestID(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}

// solveCtx derives the per-request solve context for a solve budget on
// top of the request context. A wall-clock solve gets the budget as its
// deadline. A deterministic solve ends on its virtual work budget, so its
// deadline is the engine's own backstop rule (pipeline.BackstopDeadline),
// which the request context can then never undercut. A hard-stop hook
// lets Abort interrupt the solve even while http.Server.Shutdown is still
// waiting for the handler.
func (s *Server) solveCtx(r *http.Request, timeout time.Duration, deterministic bool) (context.Context, context.CancelFunc) {
	deadline := time.Now().Add(timeout)
	if deterministic {
		deadline = pipeline.BackstopDeadline(timeout)
	}
	ctx, cancel := context.WithDeadline(r.Context(), deadline)
	stop := context.AfterFunc(s.hardCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// statusWriter records the response code and size for the request log,
// and whether anything was written (so the panic-recovery boundary knows
// a 500 can still be sent).
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}
