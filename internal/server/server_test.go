package server

import (
	"context"
	"encoding/json"
	"io"
	"log"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

const (
	// satNIA is the paper's Figure 1a example: x³+y³+z³ = 855 is
	// satisfiable (7,8,0) and fast after theory arbitrage.
	satNIA = `(set-logic QF_NIA)
(declare-fun x () Int)
(declare-fun y () Int)
(declare-fun z () Int)
(assert (= (+ (* x x x) (* y y y) (* z z z)) 855))
(check-sat)`
	// unsatLIA is trivially contradictory.
	unsatLIA = `(set-logic QF_LIA)
(declare-fun x () Int)
(assert (< x 0))
(assert (> x 0))
(check-sat)`
	// hardNIA has no solution within reach, so the unbounded solver
	// searches until its budget expires — the test's slow request.
	hardNIA = `(set-logic QF_NIA)
(declare-fun x () Int)
(declare-fun y () Int)
(declare-fun z () Int)
(assert (= (+ (* x x x) (* y y y) (* z z z)) 114))
(assert (> x 0))
(check-sat)`
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Log == nil {
		cfg.Log = discardLogger(t)
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Abort) // unblock any stragglers so Close can finish
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decodeSolve(t *testing.T, resp *http.Response) SolveResponse {
	t.Helper()
	var out SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestSolvePipelineSat(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Deterministic virtual time keeps the budget a work count, so the
	// verdict is stable even under the race detector's slowdown.
	resp := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Constraint: satNIA, TimeoutMS: 2000, Deterministic: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("code = %d, want 200", resp.StatusCode)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("missing X-Request-Id header")
	}
	out := decodeSolve(t, resp)
	if out.Status != "sat" || out.Outcome != "verified" {
		t.Fatalf("status/outcome = %s/%s, want sat/verified", out.Status, out.Outcome)
	}
	for _, v := range []string{"x", "y", "z"} {
		if _, ok := out.Model[v]; !ok {
			t.Errorf("model missing %s: %v", v, out.Model)
		}
	}
	if out.Width <= 0 {
		t.Errorf("width = %d, want > 0", out.Width)
	}
	if out.Cost.TotalMS <= 0 {
		t.Errorf("cost split empty: %+v", out.Cost)
	}

	// The removed slot knob is an unknown field and query parameter like
	// any other: ignored, with the verdict of the request without it.
	for name, resp := range map[string]*http.Response{
		`"slot":true`: postJSON(t, ts.URL+"/v1/solve", map[string]any{
			"constraint": satNIA, "timeout_ms": 2000, "deterministic": true, "slot": true}),
		"?slot=1": postJSON(t, ts.URL+"/v1/solve?slot=1",
			SolveRequest{Constraint: satNIA, TimeoutMS: 2000, Deterministic: true}),
	} {
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: code = %d, want 200", name, resp.StatusCode)
		}
		got := decodeSolve(t, resp)
		if got.Status != out.Status || got.Outcome != out.Outcome || !maps.Equal(got.Model, out.Model) {
			t.Errorf("%s: %s/%s %v, want %s/%s %v", name,
				got.Status, got.Outcome, got.Model, out.Status, out.Outcome, out.Model)
		}
	}
}

// TestSolveRawBodyWithQueryParams steers a raw SMT-LIB body from the
// URL. The retired cube_jobs and cube_share_lbd knobs ride along with
// values the server once rejected; it ignores them like any unknown
// query parameter.
func TestSolveRawBodyWithQueryParams(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/solve?mode=solve&timeout=5s&profile=secunda&cube_jobs=-1&cube_share_lbd=99999",
		"text/plain", strings.NewReader(unsatLIA))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("code = %d, want 200", resp.StatusCode)
	}
	out := decodeSolve(t, resp)
	if out.Status != "unsat" || out.Outcome != "unbounded-unsat" {
		t.Errorf("status/outcome = %s/%s, want unsat/unbounded-unsat", out.Status, out.Outcome)
	}
}

func TestSolveTimeoutOutcome(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/solve?mode=solve", SolveRequest{Constraint: hardNIA, TimeoutMS: 50, Deterministic: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("code = %d, want 200", resp.StatusCode)
	}
	out := decodeSolve(t, resp)
	if out.Status != "unknown" || !out.TimedOut {
		t.Errorf("status=%s timed_out=%t, want unknown/true", out.Status, out.TimedOut)
	}
}

func TestMalformedSMTLIBIs400WithPosition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/solve", "text/plain", strings.NewReader("(assert (= x"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("code = %d, want 400", resp.StatusCode)
	}
	body := readBody(t, resp)
	if !regexp.MustCompile(`\d+:\d+`).MatchString(body) {
		t.Errorf("error body lacks a line:column position: %s", body)
	}
}

func TestMalformedJSONIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{"{", `{"constraint": 7}`, `{"constraint":"x"} trailing`} {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: code = %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestUnknownKnobsAre400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, q := range []string{"?mode=warp", "?profile=tertia", "?timeout=yes", "?width=-3"} {
		resp := postJSON(t, ts.URL+"/v1/solve"+q, SolveRequest{Constraint: satNIA})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: code = %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestBodyTooLargeIs413(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRequestBytes: 64})
	resp, err := http.Post(ts.URL+"/v1/solve", "text/plain", strings.NewReader(satNIA))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("code = %d, want 413", resp.StatusCode)
	}
}

func TestBatchOrderingAndCacheDedup(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/batch", BatchRequest{
		Constraints: []string{satNIA, unsatLIA, satNIA},
		SolveRequest: SolveRequest{
			Mode:          "portfolio",
			TimeoutMS:     5000,
			Deterministic: true,
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("code = %d, want 200: %s", resp.StatusCode, readBody(t, resp))
	}
	var out BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 3 || len(out.Results) != 3 {
		t.Fatalf("count = %d/%d results, want 3", out.Count, len(out.Results))
	}
	wantStatus := []string{"sat", "unsat", "sat"}
	for i, want := range wantStatus {
		if out.Results[i].Status != want {
			t.Errorf("results[%d].status = %s, want %s (submission order must hold)", i, out.Results[i].Status, want)
		}
	}
	// Identical constraints share one solve: exactly one of the two
	// sat-NIA slots is a cache hit (in-flight joins count as hits).
	if out.Results[0].CacheHit == out.Results[2].CacheHit {
		t.Errorf("cache hits = %t/%t, want exactly one hit",
			out.Results[0].CacheHit, out.Results[2].CacheHit)
	}
}

func TestBatchOverLimitIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 2})
	resp := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Constraints: []string{unsatLIA, unsatLIA, unsatLIA}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("code = %d, want 400", resp.StatusCode)
	}
}

// fireSlowRequests launches n background hard-NIA solves and waits until
// all of them are admitted.
func fireSlowRequests(t *testing.T, s *Server, url string, n int) chan int {
	t.Helper()
	codes := make(chan int, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := http.Post(url+"/v1/solve?mode=solve&timeout=30s", "text/plain", strings.NewReader(hardNIA))
			if err != nil {
				codes <- -1
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Admitted() < int64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("slow requests not admitted: %d/%d", s.Admitted(), n)
		}
		time.Sleep(time.Millisecond)
	}
	return codes
}

func TestSaturationFailsFastWith429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	codes := fireSlowRequests(t, s, ts.URL, 2) // fills the slot and the queue

	resp := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Constraint: unsatLIA})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("code = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After header")
	}
	snap := s.Registry().Snapshot()
	if snap["staub_rejected_total"].(int64) < 1 {
		t.Errorf("staub_rejected_total = %v, want ≥ 1", snap["staub_rejected_total"])
	}

	// Cancel the stragglers; both must still answer their clients: the
	// one holding the solve slot finishes with an unknown verdict (200),
	// the one still queued never started and reports 504.
	s.Abort()
	got := []int{<-codes, <-codes}
	sort.Ints(got)
	if got[0] != http.StatusOK || got[1] != http.StatusGatewayTimeout {
		t.Errorf("slow request codes = %v, want [200 504]", got)
	}
}

func TestQueuedPastDeadlineIs504(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	codes := fireSlowRequests(t, s, ts.URL, 1) // occupies the only slot

	resp := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Constraint: unsatLIA, TimeoutMS: 100})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("code = %d, want 504: %s", resp.StatusCode, readBody(t, resp))
	}

	s.Abort()
	if code := <-codes; code != http.StatusOK {
		t.Errorf("slow request code = %d, want 200", code)
	}
}

func TestMetricsAndStatsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Version: "test-build"})
	postJSON(t, ts.URL+"/v1/solve", SolveRequest{Constraint: satNIA, TimeoutMS: 2000, Deterministic: true})
	postJSON(t, ts.URL+"/v1/solve", SolveRequest{Constraint: satNIA, TimeoutMS: 2000, Deterministic: true}) // cache hit

	text := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		`staub_solves_total{outcome="verified"} 2`,
		"staub_cache_hits_total 1",
		"staub_cache_misses_total 1",
		"staub_solve_latency_seconds_count 2",
		"staub_queue_depth 0",
		"staub_engine_inflight 0",
		`staub_http_requests_total{code="200",path="/v1/solve"} 2`,
		"# TYPE staub_solves_total counter",
		"# TYPE staub_portfolio_cancel_seconds histogram",
		"# TYPE staub_overapprox_runs_total counter",
		"# TYPE staub_portfolio_leg_work_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, text)
		}
	}

	assertNoDuplicateSeries(t, "fresh server", text)

	// Every staub_* family the docs name must be exported. The pool
	// families register only on a pooled node, so they are checked
	// against one.
	var pooled string
	for _, fam := range documentedFamilies(t) {
		exposition := text
		if strings.HasPrefix(fam, "staub_pool_") {
			if pooled == "" {
				pooled = scrapeMetrics(t, newCluster(t, 2, nil)[0].url)
				assertNoDuplicateSeries(t, "pooled server", pooled)
			}
			exposition = pooled
		}
		want := "# TYPE " + fam + " "
		if prefix, ok := strings.CutSuffix(fam, "*"); ok {
			want = "# TYPE " + prefix
		}
		if !strings.Contains(exposition, want) {
			t.Errorf("/metrics exports no %s family named in DESIGN.md or README.md", fam)
		}
	}

	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats struct {
		Workers  int            `json:"workers"`
		Version  string         `json:"version"`
		Draining bool           `json:"draining"`
		Metrics  map[string]any `json:"metrics"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Workers <= 0 || stats.Version != "test-build" || stats.Draining {
		t.Errorf("stats = %+v", stats)
	}
	if stats.Metrics[`staub_solves_total{outcome="verified"}`] != 2.0 {
		t.Errorf("stats metrics snapshot missing solves: %v", stats.Metrics)
	}
}

// assertNoDuplicateSeries fails when an exposition repeats a # TYPE line
// or a series, as it does when a server's own series collides with one
// declared on metrics.Process.
func assertNoDuplicateSeries(t *testing.T, what, text string) {
	t.Helper()
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		key := line
		if !strings.HasPrefix(line, "# TYPE ") {
			key = line[:strings.LastIndexByte(line, ' ')]
		}
		if seen[key] {
			t.Errorf("%s: /metrics repeats %q", what, key)
		}
		seen[key] = true
	}
}

// documentedFamilies returns the staub_* metric names DESIGN.md and
// README.md mention, a trailing * marking a family prefix (staub_cube_*).
func documentedFamilies(t *testing.T) []string {
	t.Helper()
	seen := map[string]bool{}
	for _, doc := range []string{"../../DESIGN.md", "../../README.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range regexp.MustCompile(`staub_[a-z0-9_]+\*?`).FindAllString(string(b), -1) {
			seen[m] = true
		}
	}
	if len(seen) == 0 {
		t.Fatal("the docs name no staub_* metric family")
	}
	fams := make([]string, 0, len(seen))
	for m := range seen {
		fams = append(fams, m)
	}
	sort.Strings(fams)
	return fams
}

func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return readBody(t, resp)
}

func TestHealthzFlipsOnDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Version: "v"})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy code = %d, want 200", resp.StatusCode)
	}
	s.BeginDrain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining code = %d, want 503", resp.StatusCode)
	}
	if body := readBody(t, resp); !strings.Contains(body, "draining") {
		t.Errorf("draining body = %s", body)
	}
}

// TestGracefulShutdownDrains runs the binary's shutdown sequence against
// a real http.Server: drain waits for the in-flight request, Abort
// cancels its solve, and the client still gets a complete response.
func TestGracefulShutdownDrains(t *testing.T) {
	s := New(Config{Workers: 1, Log: discardLogger(t)})
	httpSrv := httptest.NewServer(s.Handler())
	// Not using newTestServer: this test owns the shutdown sequence.

	type result struct {
		code int
		out  SolveResponse
	}
	inFlight := make(chan result, 1)
	go func() {
		resp, err := http.Post(httpSrv.URL+"/v1/solve?mode=solve&timeout=30s",
			"text/plain", strings.NewReader(hardNIA))
		if err != nil {
			inFlight <- result{code: -1}
			return
		}
		defer resp.Body.Close()
		var out SolveResponse
		json.NewDecoder(resp.Body).Decode(&out)
		inFlight <- result{code: resp.StatusCode, out: out}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.Admitted() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	s.BeginDrain()
	drainDone := make(chan struct{})
	go func() {
		defer close(drainDone)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		httpSrv.Config.Shutdown(ctx)
	}()
	select {
	case <-drainDone:
		t.Fatal("Shutdown returned while a request was in flight")
	case <-time.After(100 * time.Millisecond):
	}

	s.Abort() // second signal: cancel the straggler
	select {
	case r := <-inFlight:
		if r.code != http.StatusOK {
			t.Errorf("in-flight request code = %d, want 200", r.code)
		}
		if r.out.Status != "unknown" {
			t.Errorf("aborted solve status = %s, want unknown", r.out.Status)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request never completed after Abort")
	}
	select {
	case <-drainDone:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return after the drain emptied")
	}
}

// discardLogger routes request logs to t.Logf so failures show the
// request trace without polluting passing output.
func discardLogger(t *testing.T) *log.Logger {
	return log.New(testWriter{t}, "", 0)
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", strings.TrimRight(string(p), "\n"))
	return len(p), nil
}
