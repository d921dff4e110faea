package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"staub/internal/core"
	"staub/internal/engine"
	"staub/internal/pool"
	"staub/internal/smt"
)

// poolNode is one in-process cluster member: a full Server behind a real
// TCP listener, killable and restartable mid-test.
type poolNode struct {
	url  string
	srv  *Server
	http *http.Server
	ln   net.Listener
}

func (n *poolNode) kill(t *testing.T) {
	t.Helper()
	n.srv.Abort()
	n.http.Close()
	n.srv.Close()
}

// newCluster boots n servers on real loopback listeners, each configured
// with the full membership, health probing every 50ms and fast breakers,
// so drills converge in test time.
func newCluster(t *testing.T, n int, mutate func(cfg *Config)) []*poolNode {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*poolNode, n)
	for i := range nodes {
		nodes[i] = bootNode(t, lns[i], urls[i], urls, mutate)
	}
	return nodes
}

func bootNode(t *testing.T, ln net.Listener, self string, members []string, mutate func(cfg *Config)) *poolNode {
	t.Helper()
	cfg := Config{
		Workers:    4,
		PoolSelf:   self,
		PoolPeers:  members,
		JitterSeed: 7,
		Log:        discardLogger(t),
		Pool: pool.Config{
			HealthInterval:   50 * time.Millisecond,
			HealthTimeout:    250 * time.Millisecond,
			BreakerThreshold: 2,
			BreakerCooldown:  200 * time.Millisecond,
			HedgeAfter:       30 * time.Second, // deterministic: no hedging unless asked
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s := New(cfg)
	if s.Pool() == nil {
		t.Fatal("cluster node booted without a pool")
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	s.StartPool()
	node := &poolNode{url: self, srv: s, http: hs, ln: ln}
	t.Cleanup(func() {
		s.Abort()
		hs.Close()
		s.Close()
	})
	return node
}

// restart brings a killed node back on its old address with the same
// configuration.
func (n *poolNode) restart(t *testing.T, members []string, mutate func(cfg *Config)) *poolNode {
	t.Helper()
	addr := n.ln.Addr().String()
	var ln net.Listener
	var err error
	// The old listener may linger briefly after Close; retry the bind.
	for i := 0; i < 50; i++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	return bootNode(t, ln, n.url, members, mutate)
}

func waitFor(t *testing.T, what string, deadline time.Duration, cond func() bool) {
	t.Helper()
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestPeerSolveEndpoint drives POST /v1/peer/solve directly: a valid
// wire job solves locally and returns a decodable clean result; key
// mismatches and garbage are rejected without solving.
func TestPeerSolveEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers:   2,
		PoolSelf:  "http://self.test:1",
		PoolPeers: []string{"http://peer.test:2"},
	})
	if s.Pool() == nil {
		t.Fatal("pool not installed")
	}
	c, err := smt.ParseScript(unsatLIA)
	if err != nil {
		t.Fatal(err)
	}
	j := engine.Job{Kind: engine.KindSolve, Constraint: c, Config: core.Config{Timeout: 2 * time.Second, Deterministic: true}}

	t.Run("solves", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/v1/peer/solve", pool.EncodeJob(j.Key(), j))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("peer solve = %d: %s", resp.StatusCode, readBody(t, resp))
		}
		var wire pool.WireResult
		if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
			t.Fatal(err)
		}
		res, err := pool.DecodeResult(j, wire)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Solve.Status.String(); got != "unsat" {
			t.Errorf("peer verdict = %q, want unsat", got)
		}
	})

	t.Run("key-mismatch-422", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/v1/peer/solve", pool.EncodeJob("0000beef", j))
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("mismatched key = %d, want 422", resp.StatusCode)
		}
	})

	t.Run("garbage-400", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/peer/solve", "application/json", bytes.NewReader([]byte("{")))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("garbage body = %d, want 400", resp.StatusCode)
		}
	})

	t.Run("schema-skew-400", func(t *testing.T) {
		w := pool.EncodeJob(j.Key(), j)
		w.Schema = pool.SchemaVersion + 1
		resp := postJSON(t, ts.URL+"/v1/peer/solve", w)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("schema skew = %d, want 400", resp.StatusCode)
		}
	})
}

// TestPeerSolveDisabledIs404: a standalone server does not serve the
// peer endpoint.
func TestPeerSolveDisabledIs404(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp := postJSON(t, ts.URL+"/v1/peer/solve", map[string]any{})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("peer solve on standalone = %d, want 404", resp.StatusCode)
	}
}

// TestPoolDegenerateMembershipIsStandalone: -pool with no peers (or only
// self) must behave exactly like no pool at all.
func TestPoolDegenerateMembershipIsStandalone(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers:   1,
		PoolSelf:  "http://lonely.test:1",
		PoolPeers: []string{"http://lonely.test:1"},
	})
	if s.Pool() != nil {
		t.Fatal("1-node membership installed a pool")
	}
	resp := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Constraint: unsatLIA, Mode: "solve", Deterministic: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve = %d", resp.StatusCode)
	}
	if out := decodeSolve(t, resp); out.Status != "unsat" {
		t.Errorf("verdict = %q, want unsat", out.Status)
	}
	// And no pool block in healthz.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if h := decodeHealth(t, hresp); h["pool"] != nil {
		t.Errorf("standalone healthz carries a pool block: %v", h["pool"])
	}
}

// TestClusterSharedCache: the same constraint posted to all three nodes
// is solved once, by its ring owner; the other nodes serve the remote
// answer and memoize it, and everyone reports the same verdict.
func TestClusterSharedCache(t *testing.T) {
	nodes := newCluster(t, 3, nil)
	// A constraint none of the fixtures used, so no cache is warm.
	src := `(set-logic QF_NIA)
(declare-fun x () Int)
(assert (= (* x x x) 2197))
(check-sat)`
	verdicts := map[string]int{}
	for _, n := range nodes {
		resp := postJSON(t, n.url+"/v1/solve", SolveRequest{Constraint: src, Deterministic: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve via %s = %d: %s", n.url, resp.StatusCode, readBody(t, resp))
		}
		out := decodeSolve(t, resp)
		verdicts[out.Status]++
	}
	if verdicts["sat"] != 3 {
		t.Fatalf("cluster verdicts = %v, want 3x sat (x=13)", verdicts)
	}
	var owned, remote, fallbacks int64
	for _, n := range nodes {
		p := n.srv.Pool()
		st := p.Stats()
		owned += st["local_owned"].(int64)
		remote += st["remote"].(int64)
		fallbacks += p.Fallbacks()
	}
	if fallbacks != 0 {
		t.Errorf("healthy cluster took %d fallbacks", fallbacks)
	}
	// Exactly the two non-owner nodes consulted the remote tier. The
	// owner itself either solved under the pool (local_owned=1, if it
	// was asked first) or served a peer-primed cache hit (local_owned=0).
	if remote != 2 || owned > 1 {
		t.Errorf("local_owned=%d remote=%d across the cluster, want remote=2 and owned≤1", owned, remote)
	}
}

// TestClusterNodeKillDrill is the robustness acceptance drill: three
// nodes under mixed solve/batch load, one killed mid-load. Every request
// to the survivors must be answered with the right verdict (zero flips,
// zero drops), the survivors' breakers must open on the dead peer, and
// once the node returns the breakers must close again.
func TestClusterNodeKillDrill(t *testing.T) {
	nodes := newCluster(t, 3, nil)
	members := []string{nodes[0].url, nodes[1].url, nodes[2].url}

	// Mixed workload with known verdicts. The unsat fixtures run in raw
	// solve mode: the default pipeline honestly reports bounded-unsat as
	// unknown, which is not a verdict flip.
	type item struct {
		src  string
		mode string
		want string
	}
	var load []item
	for i := 2; i < 12; i++ {
		load = append(load, item{
			src:  fmt.Sprintf("(set-logic QF_NIA)(declare-fun x () Int)(assert (= (* x x) %d))(assert (> x 0))(check-sat)", i*i),
			want: "sat",
		})
		load = append(load, item{
			src:  fmt.Sprintf("(set-logic QF_LIA)(declare-fun x () Int)(assert (< x %d))(assert (> x %d))(check-sat)", i, i),
			mode: "solve",
			want: "unsat",
		})
	}

	var answered, flips atomic.Int64
	drive := func(node *poolNode, items []item) {
		var wg sync.WaitGroup
		for i, it := range items {
			wg.Add(1)
			go func(i int, it item) {
				defer wg.Done()
				var got string
				if i%4 == 3 {
					resp := postJSON(t, node.url+"/v1/batch", BatchRequest{
						Constraints: []string{it.src}, SolveRequest: SolveRequest{Mode: it.mode, Deterministic: true}})
					if resp.StatusCode != http.StatusOK {
						t.Errorf("batch via survivor %s = %d", node.url, resp.StatusCode)
						return
					}
					var out BatchResponse
					if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
						t.Error(err)
						return
					}
					got = out.Results[0].Status
				} else {
					resp := postJSON(t, node.url+"/v1/solve", SolveRequest{Constraint: it.src, Mode: it.mode, Deterministic: true})
					if resp.StatusCode != http.StatusOK {
						t.Errorf("solve via survivor %s = %d", node.url, resp.StatusCode)
						return
					}
					got = decodeSolve(t, resp).Status
				}
				answered.Add(1)
				if got != it.want {
					flips.Add(1)
					t.Errorf("verdict flip on %q: got %s, want %s", it.src, got, it.want)
				}
			}(i, it)
		}
		wg.Wait()
	}

	// Phase 1: all nodes healthy, half the load through node 1.
	drive(nodes[1], load[:len(load)/2])

	// Phase 2: kill node 0 and immediately continue loading the
	// survivors — routed solves to the dead owner must fall back local.
	nodes[0].kill(t)
	drive(nodes[1], load[len(load)/2:])
	drive(nodes[2], load)

	if got := answered.Load(); got != int64(len(load)*2) {
		t.Errorf("answered %d of %d requests — dropped some", got, len(load)*2)
	}
	if flips.Load() != 0 {
		t.Errorf("%d verdict flips during the drill", flips.Load())
	}

	// The survivors' health probers must open the dead node's breaker.
	for _, n := range nodes[1:] {
		p := n.srv.Pool()
		waitFor(t, fmt.Sprintf("%s breaker open for dead node", n.url), 5*time.Second, func() bool {
			return p.Breaker(nodes[0].url).State() == pool.BreakerOpen
		})
	}

	// Phase 3: the node returns on the same address; breakers close.
	revived := nodes[0].restart(t, members, nil)
	for _, n := range nodes[1:] {
		p := n.srv.Pool()
		waitFor(t, fmt.Sprintf("%s breaker closed after revival", n.url), 5*time.Second, func() bool {
			return p.Breaker(nodes[0].url).State() == pool.BreakerClosed
		})
	}

	// And the revived node serves again — through the pool.
	resp := postJSON(t, revived.url+"/v1/solve", SolveRequest{Constraint: unsatLIA, Mode: "solve", Deterministic: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("revived node solve = %d", resp.StatusCode)
	}
	if out := decodeSolve(t, resp); out.Status != "unsat" {
		t.Errorf("revived node verdict = %q, want unsat", out.Status)
	}
}

// TestClusterStatsAndMetricsExposePool: the pooled node's healthz and
// stats carry the pool block, and /metrics exposes staub_pool_* series.
func TestClusterStatsAndMetricsExposePool(t *testing.T) {
	nodes := newCluster(t, 2, nil)
	resp, err := http.Get(nodes[0].url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	h := decodeHealth(t, resp)
	pb, ok := h["pool"].(map[string]any)
	if !ok {
		t.Fatalf("healthz pool block missing: %v", h)
	}
	if pb["self"] != nodes[0].url {
		t.Errorf("pool self = %v, want %s", pb["self"], nodes[0].url)
	}
	mresp, err := http.Get(nodes[0].url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body := readBody(t, mresp)
	for _, name := range []string{
		"staub_pool_routed_total", "staub_pool_local_owned_total",
		"staub_pool_hedged_total", "staub_pool_breaker_open_total",
		"staub_pool_fallback_total", "staub_pool_health_probes_total",
		"staub_cache_evictions_total",
	} {
		if !bytes.Contains([]byte(body), []byte(name)) {
			t.Errorf("/metrics missing %s", name)
		}
	}
}
