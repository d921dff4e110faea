package pool

import (
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"staub/internal/chaos"
	"staub/internal/core"
	"staub/internal/engine"
	"staub/internal/eval"
	"staub/internal/solver"
	"staub/internal/status"
)

// newTestPool builds a two-node pool: this node plus one peer URL.
func newTestPool(t *testing.T, peer string, mutate func(*Config)) *Pool {
	t.Helper()
	cfg := Config{
		Self:            "http://self.invalid:1",
		Peers:           []string{peer},
		HedgeAfter:      time.Hour, // effectively no hedging unless a test opts in
		Retries:         -1,        // no retries unless a test opts in
		RetryBase:       time.Millisecond,
		RetryCap:        2 * time.Millisecond,
		BreakerCooldown: time.Hour, // opened breakers stay open unless a test probes
	}
	if mutate != nil {
		mutate(&cfg)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// keyOwnedBy finds a key string the ring assigns to the wanted node.
func keyOwnedBy(t *testing.T, r *Ring, owner string) string {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		k := fmt.Sprintf("testkey-%d", i)
		if r.Owner(k) == owner {
			return k
		}
	}
	t.Fatalf("no key owned by %s in 10k candidates", owner)
	return ""
}

// localStub returns a local-solve continuation that counts invocations
// and reports unsat.
func localStub(calls *atomic.Int64) func(context.Context) (engine.Result, bool) {
	return func(ctx context.Context) (engine.Result, bool) {
		calls.Add(1)
		return engine.Result{Solve: solver.Result{Status: status.Unsat, Engine: "local-stub"}}, true
	}
}

func solveJob(t *testing.T) engine.Job {
	t.Helper()
	return engine.Job{Kind: engine.KindSolve, Constraint: mustParse(t, wireNIA), Config: core.Config{Timeout: time.Second}}
}

// TestPoolSelfOwnedSolvesLocally: a key this node owns never leaves the
// node — no HTTP, one local call.
func TestPoolSelfOwnedSolvesLocally(t *testing.T) {
	dials := atomic.Int64{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		dials.Add(1)
	}))
	defer ts.Close()
	p := newTestPool(t, ts.URL, nil)
	key := keyOwnedBy(t, p.Ring(), p.Self())
	var localCalls atomic.Int64
	res, keep := p.Remote()(context.Background(), key, solveJob(t), localStub(&localCalls))
	if !keep || res.Solve.Engine != "local-stub" {
		t.Fatalf("self-owned solve: keep=%t engine=%q", keep, res.Solve.Engine)
	}
	if localCalls.Load() != 1 || dials.Load() != 0 {
		t.Errorf("local=%d dials=%d, want 1 and 0", localCalls.Load(), dials.Load())
	}
	if p.localOwned.Value() != 1 || p.routed.Value() != 0 {
		t.Errorf("localOwned=%d routed=%d", p.localOwned.Value(), p.routed.Value())
	}
}

// TestPoolRoutesToOwner: a peer-owned key is served by the peer; the
// local continuation is never invoked and the result is memoizable.
func TestPoolRoutesToOwner(t *testing.T) {
	j := engine.Job{} // filled below; handler closes over it
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != PeerSolvePath {
			t.Errorf("peer dialed %s, want %s", r.URL.Path, PeerSolvePath)
		}
		res := engine.Result{Solve: solver.Result{Status: status.Unsat, Engine: "remote"}}
		writeWire(w, EncodeResult(j, res))
	}))
	defer ts.Close()
	p := newTestPool(t, ts.URL, nil)
	j = solveJob(t)
	key := keyOwnedBy(t, p.Ring(), ts.URL)
	var localCalls atomic.Int64
	res, keep := p.Remote()(context.Background(), key, j, localStub(&localCalls))
	if !keep || res.Solve.Engine != "remote" || res.Solve.Status != status.Unsat {
		t.Fatalf("routed solve: keep=%t result=%+v", keep, res.Solve)
	}
	if localCalls.Load() != 0 {
		t.Errorf("local ran %d times for a remote-served solve", localCalls.Load())
	}
	if p.remoteServed.Value() != 1 || p.routed.Value() != 1 {
		t.Errorf("remoteServed=%d routed=%d, want 1 and 1", p.remoteServed.Value(), p.routed.Value())
	}
	if br := p.Breaker(ts.URL); br.State() != BreakerClosed {
		t.Errorf("breaker %v after a success, want closed", br.State())
	}
}

// TestPoolVerifiesRemoteSat: a peer claiming sat with a model that does
// not satisfy the constraint is treated as corrupt — the verdict comes
// from the local solve instead.
func TestPoolVerifiesRemoteSat(t *testing.T) {
	j := engine.Job{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// x*y=21 is satisfiable, but not by x=2,y=2: the model is a lie.
		res := engine.Result{Solve: solver.Result{Status: status.Sat,
			Model: eval.Assignment{
				"x": eval.IntValue(big.NewInt(2)),
				"y": eval.IntValue(big.NewInt(2)),
			}}}
		writeWire(w, EncodeResult(j, res))
	}))
	defer ts.Close()
	p := newTestPool(t, ts.URL, nil)
	j = solveJob(t)
	key := keyOwnedBy(t, p.Ring(), ts.URL)
	var localCalls atomic.Int64
	res, _ := p.Remote()(context.Background(), key, j, localStub(&localCalls))
	if res.Solve.Engine != "local-stub" {
		t.Fatalf("unverifiable remote sat was trusted: %+v", res.Solve)
	}
	if localCalls.Load() != 1 {
		t.Errorf("local ran %d times, want 1 (fallback)", localCalls.Load())
	}
	if p.fbBadReply.Value() != 1 {
		t.Errorf("bad-response fallbacks = %d, want 1", p.fbBadReply.Value())
	}
}

// TestPoolPeerErrorFallsBackAndOpensBreaker: hard peer errors solve
// locally, consecutive failures open the breaker, and an open breaker
// skips the peer without dialing.
func TestPoolPeerErrorFallsBackAndOpensBreaker(t *testing.T) {
	var dials atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		dials.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	p := newTestPool(t, ts.URL, func(c *Config) { c.BreakerThreshold = 3 })
	j := solveJob(t)
	key := keyOwnedBy(t, p.Ring(), ts.URL)
	var localCalls atomic.Int64
	for i := 0; i < 3; i++ {
		res, _ := p.Remote()(context.Background(), key, j, localStub(&localCalls))
		if res.Solve.Engine != "local-stub" {
			t.Fatalf("call %d: failed peer did not fall back locally", i)
		}
	}
	if localCalls.Load() != 3 || p.fbError.Value() != 3 {
		t.Errorf("local=%d fbError=%d, want 3 and 3", localCalls.Load(), p.fbError.Value())
	}
	if br := p.Breaker(ts.URL); br.State() != BreakerOpen {
		t.Fatalf("breaker %v after 3 failures, want open", br.State())
	}
	before := dials.Load()
	res, _ := p.Remote()(context.Background(), key, j, localStub(&localCalls))
	if res.Solve.Engine != "local-stub" {
		t.Fatal("open-breaker call did not fall back locally")
	}
	if dials.Load() != before {
		t.Error("open breaker still dialed the peer")
	}
	if p.breakerOpen.Value() != 1 || p.fbBreaker.Value() != 1 {
		t.Errorf("breakerOpen=%d fbBreaker=%d, want 1 and 1", p.breakerOpen.Value(), p.fbBreaker.Value())
	}
}

// TestPoolRetriesTransient: a single 5xx is retried with backoff and the
// second attempt's answer is used; no fallback happens.
func TestPoolRetriesTransient(t *testing.T) {
	j := engine.Job{}
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, "transient", http.StatusBadGateway)
			return
		}
		writeWire(w, EncodeResult(j, engine.Result{Solve: solver.Result{Status: status.Unsat, Engine: "remote"}}))
	}))
	defer ts.Close()
	p := newTestPool(t, ts.URL, func(c *Config) { c.Retries = 2 })
	j = solveJob(t)
	key := keyOwnedBy(t, p.Ring(), ts.URL)
	var localCalls atomic.Int64
	res, _ := p.Remote()(context.Background(), key, j, localStub(&localCalls))
	if res.Solve.Engine != "remote" {
		t.Fatalf("retried solve engine = %q, want remote", res.Solve.Engine)
	}
	if p.retries.Value() != 1 || localCalls.Load() != 0 {
		t.Errorf("retries=%d local=%d, want 1 and 0", p.retries.Value(), localCalls.Load())
	}
	// The interim failure fed the breaker but the success closed it.
	if br := p.Breaker(ts.URL); br.State() != BreakerClosed {
		t.Errorf("breaker %v, want closed", br.State())
	}
}

// TestPoolSaturatedPeerNoRetry: 429 means the peer is alive but full —
// solve locally at once, don't retry into the overload, don't punish
// the breaker.
func TestPoolSaturatedPeerNoRetry(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "full", http.StatusTooManyRequests)
	}))
	defer ts.Close()
	p := newTestPool(t, ts.URL, func(c *Config) { c.Retries = 3 })
	key := keyOwnedBy(t, p.Ring(), ts.URL)
	var localCalls atomic.Int64
	res, _ := p.Remote()(context.Background(), key, solveJob(t), localStub(&localCalls))
	if res.Solve.Engine != "local-stub" || localCalls.Load() != 1 {
		t.Fatal("saturated peer did not fall back to one local solve")
	}
	if calls.Load() != 1 {
		t.Errorf("dialed saturated peer %d times, want 1 (no retry)", calls.Load())
	}
	if p.fbSaturated.Value() != 1 {
		t.Errorf("saturated fallbacks = %d, want 1", p.fbSaturated.Value())
	}
	if br := p.Breaker(ts.URL); br.State() != BreakerClosed {
		t.Errorf("breaker %v after a 429, want closed (peer is alive)", br.State())
	}
}

// TestPoolHedgeWinsOnSlowPeer: when the peer dawdles past the hedge
// delay, the local solve runs in parallel and its answer is served.
func TestPoolHedgeWinsOnSlowPeer(t *testing.T) {
	j := engine.Job{}
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		writeWire(w, EncodeResult(j, engine.Result{Solve: solver.Result{Status: status.Unsat, Engine: "remote"}}))
	}))
	defer ts.Close()
	defer close(release)
	p := newTestPool(t, ts.URL, func(c *Config) { c.HedgeAfter = 5 * time.Millisecond })
	j = solveJob(t)
	key := keyOwnedBy(t, p.Ring(), ts.URL)
	var localCalls atomic.Int64
	res, keep := p.Remote()(context.Background(), key, j, localStub(&localCalls))
	if res.Solve.Engine != "local-stub" || !keep {
		t.Fatalf("hedged solve engine = %q keep=%t, want local-stub/true", res.Solve.Engine, keep)
	}
	if p.hedged.Value() != 1 || p.hedgeWins.Value() != 1 {
		t.Errorf("hedged=%d hedgeWins=%d, want 1 and 1", p.hedged.Value(), p.hedgeWins.Value())
	}
}

// TestPoolHedgeLosesToFastPeer: a peer answering before the hedge timer
// fires serves the request without ever starting the local leg.
func TestPoolHedgeLosesToFastPeer(t *testing.T) {
	j := engine.Job{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeWire(w, EncodeResult(j, engine.Result{Solve: solver.Result{Status: status.Unsat, Engine: "remote"}}))
	}))
	defer ts.Close()
	p := newTestPool(t, ts.URL, func(c *Config) { c.HedgeAfter = 30 * time.Second })
	j = solveJob(t)
	key := keyOwnedBy(t, p.Ring(), ts.URL)
	var localCalls atomic.Int64
	res, _ := p.Remote()(context.Background(), key, j, localStub(&localCalls))
	if res.Solve.Engine != "remote" {
		t.Fatalf("fast peer lost: engine = %q", res.Solve.Engine)
	}
	if p.hedged.Value() != 0 || localCalls.Load() != 0 {
		t.Errorf("hedged=%d local=%d for a fast peer, want 0 and 0", p.hedged.Value(), localCalls.Load())
	}
}

// TestPoolChaosPanicContained: an injected panic at pool:peer-solve is
// recovered inside the pool and degrades to a local solve — chaos in
// the routing layer can never fault a job.
func TestPoolChaosPanicContained(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("peer dialed despite injected panic before the call")
	}))
	defer ts.Close()
	p := newTestPool(t, ts.URL, nil)
	restore := chaos.Enable(chaos.NewInjector(chaos.Config{
		Seed: 5, Rate: 1, Max: 1, Fault: chaos.FaultPassPanic, Sites: []string{"pool:peer-solve"},
	}))
	defer restore()
	key := keyOwnedBy(t, p.Ring(), ts.URL)
	var localCalls atomic.Int64
	res, keep := p.Remote()(context.Background(), key, solveJob(t), localStub(&localCalls))
	if res.Solve.Engine != "local-stub" || !keep {
		t.Fatalf("panic fallback engine = %q keep=%t", res.Solve.Engine, keep)
	}
	if p.fbPanic.Value() != 1 {
		t.Errorf("panic fallbacks = %d, want 1", p.fbPanic.Value())
	}
	if res.Fault != "" {
		t.Errorf("contained pool panic surfaced as job fault %q", res.Fault)
	}
}

// TestPoolChaosTransientRetries: injected transient errors at
// pool:peer-solve drive the retry path deterministically.
func TestPoolChaosTransientRetries(t *testing.T) {
	j := engine.Job{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeWire(w, EncodeResult(j, engine.Result{Solve: solver.Result{Status: status.Unsat, Engine: "remote"}}))
	}))
	defer ts.Close()
	p := newTestPool(t, ts.URL, func(c *Config) { c.Retries = 1 })
	j = solveJob(t)
	restore := chaos.Enable(chaos.NewInjector(chaos.Config{
		Seed: 5, Rate: 1, Max: 1, Fault: chaos.FaultTransientError, Sites: []string{"pool:peer-solve"},
	}))
	defer restore()
	key := keyOwnedBy(t, p.Ring(), ts.URL)
	var localCalls atomic.Int64
	res, _ := p.Remote()(context.Background(), key, j, localStub(&localCalls))
	if res.Solve.Engine != "remote" {
		t.Fatalf("engine = %q, want remote (retry after injected transient)", res.Solve.Engine)
	}
	if p.retries.Value() != 1 {
		t.Errorf("retries = %d, want 1", p.retries.Value())
	}
}

// TestPoolChaosForcedHedge: chaos at pool:hedge zeroes the hedge delay,
// so even a generous HedgeAfter races the local solve immediately —
// the drill knob for exercising the race paths deterministically.
func TestPoolChaosForcedHedge(t *testing.T) {
	j := engine.Job{}
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		writeWire(w, EncodeResult(j, engine.Result{Solve: solver.Result{Status: status.Unsat, Engine: "remote"}}))
	}))
	defer ts.Close()
	defer close(release)
	p := newTestPool(t, ts.URL, func(c *Config) { c.HedgeAfter = time.Hour })
	j = solveJob(t)
	restore := chaos.Enable(chaos.NewInjector(chaos.Config{
		Seed: 5, Rate: 1, Fault: chaos.FaultTransientError, Sites: []string{"pool:hedge"},
	}))
	defer restore()
	key := keyOwnedBy(t, p.Ring(), ts.URL)
	var localCalls atomic.Int64
	res, _ := p.Remote()(context.Background(), key, j, localStub(&localCalls))
	if res.Solve.Engine != "local-stub" {
		t.Fatalf("forced hedge engine = %q, want local-stub", res.Solve.Engine)
	}
	if p.hedged.Value() != 1 || p.hedgeWins.Value() != 1 {
		t.Errorf("hedged=%d hedgeWins=%d, want 1 and 1", p.hedged.Value(), p.hedgeWins.Value())
	}
}

// TestPoolHealthProbe: the prober closes an open breaker once the peer
// answers /healthz again, and opens it while the peer is down.
func TestPoolHealthProbe(t *testing.T) {
	healthy := atomic.Bool{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			t.Errorf("probe dialed %s, want /healthz", r.URL.Path)
		}
		if healthy.Load() {
			w.WriteHeader(http.StatusOK)
		} else {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	}))
	defer ts.Close()
	p := newTestPool(t, ts.URL, func(c *Config) { c.BreakerThreshold = 2 })
	br := p.Breaker(ts.URL)

	p.probe(ts.URL)
	p.probe(ts.URL)
	if br.State() != BreakerOpen {
		t.Fatalf("breaker %v after 2 failed probes (threshold 2), want open", br.State())
	}
	if p.healthFail.Value() != 2 {
		t.Errorf("failed probes = %d, want 2", p.healthFail.Value())
	}

	healthy.Store(true)
	p.probe(ts.URL)
	if br.State() != BreakerClosed {
		t.Fatalf("breaker %v after a healthy probe, want closed", br.State())
	}
	if p.healthOK.Value() != 1 {
		t.Errorf("ok probes = %d, want 1", p.healthOK.Value())
	}
}

// TestPoolChaosHealthProbe: chaos at pool:health fails probes without
// touching the network.
func TestPoolChaosHealthProbe(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("probe dialed despite injected failure")
	}))
	defer ts.Close()
	p := newTestPool(t, ts.URL, nil)
	restore := chaos.Enable(chaos.NewInjector(chaos.Config{
		Seed: 5, Rate: 1, Fault: chaos.FaultTransientError, Sites: []string{"pool:health"},
	}))
	defer restore()
	p.probe(ts.URL)
	if p.healthFail.Value() != 1 {
		t.Errorf("failed probes = %d, want 1", p.healthFail.Value())
	}
}

// TestPoolStats: the healthz/stats block carries membership, breaker
// states and the counters.
func TestPoolStats(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer ts.Close()
	p := newTestPool(t, ts.URL, nil)
	key := keyOwnedBy(t, p.Ring(), ts.URL)
	var localCalls atomic.Int64
	p.Remote()(context.Background(), key, solveJob(t), localStub(&localCalls))

	stats := p.Stats()
	if stats["self"] != p.Self() {
		t.Errorf("stats self = %v", stats["self"])
	}
	if got := stats["routed"].(int64); got != 1 {
		t.Errorf("stats routed = %d, want 1", got)
	}
	if got := stats["fallbacks"].(int64); got != 1 {
		t.Errorf("stats fallbacks = %d, want 1", got)
	}
	peers := stats["peers"].(map[string]any)
	entry, ok := peers[ts.URL].(map[string]any)
	if !ok {
		t.Fatalf("stats peers missing %s: %v", ts.URL, peers)
	}
	if entry["breaker"] != "closed" {
		t.Errorf("peer breaker state = %v, want closed (one failure)", entry["breaker"])
	}
	if entry["last_error"] == nil {
		t.Error("peer entry lost its last_error detail")
	}
}

func writeWire(w http.ResponseWriter, res WireResult) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(res)
}
