package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newSessionTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Log == nil {
		cfg.Log = discardLogger(t)
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.CloseSessions)
	return s, ts
}

// do issues one request and decodes the JSON body into out (skipped for
// nil out or empty bodies).
func do(t *testing.T, method, url, body string, out any) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding body: %v", method, url, err)
		}
	}
	return resp
}

func createSession(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	var created struct {
		ID string `json:"id"`
	}
	resp := do(t, "POST", ts.URL+"/v1/session", body, &created)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create session: %d", resp.StatusCode)
	}
	if created.ID == "" {
		t.Fatal("create session: empty id")
	}
	return created.ID
}

// TestSessionLifecycle drives one conversation end to end over HTTP:
// create, assert, check, push, assert, check, pop, check, delete. The
// removed slot knob is an unknown create field like any other: a session
// created with it runs the same conversation to the same verdicts.
func TestSessionLifecycle(t *testing.T) {
	for name, create := range map[string]string{
		"plain":     `{"deterministic": true}`,
		"slot-knob": `{"deterministic": true, "slot": true}`,
	} {
		t.Run(name, func(t *testing.T) { sessionLifecycle(t, create) })
	}
}

func sessionLifecycle(t *testing.T, create string) {
	_, ts := newSessionTestServer(t, Config{})
	id := createSession(t, ts, create)
	base := ts.URL + "/v1/session/" + id

	resp := do(t, "POST", base+"/assert",
		"(set-logic QF_NIA)(declare-fun x () Int)(assert (= (* x x) 49))(assert (> x 0))", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("assert: %d", resp.StatusCode)
	}

	var chk SessionCheckResponse
	do(t, "POST", base+"/check", "", &chk)
	if chk.Status != "sat" {
		t.Fatalf("check 1 = %q, want sat", chk.Status)
	}
	if chk.Model["x"] != "7" {
		t.Errorf("model = %v, want x=7", chk.Model)
	}

	var scope struct {
		Depth int `json:"depth"`
	}
	do(t, "POST", base+"/push", `{"n": 1}`, &scope)
	if scope.Depth != 1 {
		t.Fatalf("depth after push = %d", scope.Depth)
	}
	do(t, "POST", base+"/assert", "(assert (< x 5))", nil)
	do(t, "POST", base+"/check", "", &chk)
	if chk.Status != "unsat" {
		t.Fatalf("check 2 = %q, want unsat", chk.Status)
	}

	do(t, "POST", base+"/pop", `{"n": 1}`, &scope)
	if scope.Depth != 0 {
		t.Fatalf("depth after pop = %d", scope.Depth)
	}
	do(t, "POST", base+"/check", "", &chk)
	if chk.Status != "sat" {
		t.Fatalf("check 3 = %q, want sat", chk.Status)
	}
	if !chk.Memoized {
		t.Error("pop back to a decided state should be a memo hit")
	}

	var info SessionInfo
	do(t, "GET", base, "", &info)
	if info.Checks != 3 || info.MemoHits != 1 {
		t.Errorf("info = %+v, want 3 checks / 1 memo hit", info)
	}

	if resp := do(t, "DELETE", base, "", nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	if resp := do(t, "POST", base+"/check", "", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("check after delete: %d, want 404", resp.StatusCode)
	}
}

// TestSessionErrors covers the client-error surface: bad bodies, bad
// ops, unknown ids.
func TestSessionErrors(t *testing.T) {
	_, ts := newSessionTestServer(t, Config{})

	if resp := do(t, "POST", ts.URL+"/v1/session", `{"profile": "tertia"}`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad profile: %d, want 400", resp.StatusCode)
	}
	if resp := do(t, "POST", ts.URL+"/v1/session/zzz/check", "", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: %d, want 404", resp.StatusCode)
	}
	if resp := do(t, "DELETE", ts.URL+"/v1/session/zzz", "", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("delete unknown id: %d, want 404", resp.StatusCode)
	}

	id := createSession(t, ts, "")
	base := ts.URL + "/v1/session/" + id
	if resp := do(t, "POST", base+"/assert", "(check-sat)", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("check via assert: %d, want 400", resp.StatusCode)
	}
	if resp := do(t, "POST", base+"/pop", `{"n": 3}`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("over-pop: %d, want 400", resp.StatusCode)
	}
	if resp := do(t, "POST", base+"/assert", "(assert (> y 0))", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("undeclared symbol: %d, want 400", resp.StatusCode)
	}
	// The session survives all of the above.
	if resp := do(t, "POST", base+"/assert", "(declare-fun y () Int)(assert (> y 0))", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("session wedged after errors: %d", resp.StatusCode)
	}
}

// TestSessionTTLEviction: an idle session expires and later requests
// see 404; the eviction is visible in /healthz.
func TestSessionTTLEviction(t *testing.T) {
	_, ts := newSessionTestServer(t, Config{SessionTTL: 50 * time.Millisecond})
	id := createSession(t, ts, "")
	base := ts.URL + "/v1/session/" + id

	if resp := do(t, "POST", base+"/assert", "(declare-fun x () Int)", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("assert before expiry: %d", resp.StatusCode)
	}
	time.Sleep(120 * time.Millisecond)
	if resp := do(t, "POST", base+"/check", "", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("check after expiry: %d, want 404", resp.StatusCode)
	}

	var hz struct {
		Sessions struct {
			Live       int   `json:"live"`
			EvictedTTL int64 `json:"evicted_ttl"`
		} `json:"sessions"`
	}
	do(t, "GET", ts.URL+"/healthz", "", &hz)
	if hz.Sessions.Live != 0 || hz.Sessions.EvictedTTL != 1 {
		t.Errorf("healthz sessions = %+v, want live=0 evicted_ttl=1", hz.Sessions)
	}
}

// TestSessionLRUEviction: creating past MaxSessions evicts the least
// recently used conversation, not the busy one.
func TestSessionLRUEviction(t *testing.T) {
	_, ts := newSessionTestServer(t, Config{MaxSessions: 2})
	id1 := createSession(t, ts, "")
	id2 := createSession(t, ts, "")
	// Touch id1 so id2 is the LRU.
	do(t, "POST", ts.URL+"/v1/session/"+id1+"/assert", "(declare-fun x () Int)", nil)
	id3 := createSession(t, ts, "")

	if resp := do(t, "GET", ts.URL+"/v1/session/"+id2, "", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("LRU session survived: %d, want 404", resp.StatusCode)
	}
	for _, id := range []string{id1, id3} {
		if resp := do(t, "GET", ts.URL+"/v1/session/"+id, "", nil); resp.StatusCode != http.StatusOK {
			t.Errorf("session %s evicted: %d, want 200", id, resp.StatusCode)
		}
	}
}

// TestSessionGlobalBudgetSpill: a tiny global budget forces LRU solver
// spills, and the verdicts of subsequent checks are unaffected.
func TestSessionGlobalBudgetSpill(t *testing.T) {
	_, ts := newSessionTestServer(t, Config{SessionGlobalBudget: 1})
	id := createSession(t, ts, `{"deterministic": true}`)
	base := ts.URL + "/v1/session/" + id

	do(t, "POST", base+"/assert",
		"(set-logic QF_NIA)(declare-fun x () Int)(assert (= (* x x) 49))(assert (> x 0))", nil)
	var chk SessionCheckResponse
	do(t, "POST", base+"/check", "", &chk)
	if chk.Status != "sat" {
		t.Fatalf("check 1 under spill pressure = %q", chk.Status)
	}
	do(t, "POST", base+"/assert", "(assert (< x 100))", nil)
	do(t, "POST", base+"/check", "", &chk)
	if chk.Status != "sat" {
		t.Fatalf("check 2 under spill pressure = %q", chk.Status)
	}
}

// TestSessionCheckNeverRejected saturates classic admission and then
// confirms a live session's check still runs (the asymmetry /v1/solve
// does not get).
func TestSessionCheckNeverRejected(t *testing.T) {
	s, ts := newSessionTestServer(t, Config{Workers: 1, QueueDepth: 1})
	id := createSession(t, ts, `{"deterministic": true}`)
	base := ts.URL + "/v1/session/" + id
	do(t, "POST", base+"/assert",
		"(set-logic QF_NIA)(declare-fun x () Int)(assert (= (* x x) 49))(assert (> x 0))", nil)

	// Exhaust the admission budget by hand; a /v1/solve would now 429.
	if !s.admit(s.limit) {
		t.Fatal("could not saturate admission")
	}
	defer s.release(s.limit)
	resp := do(t, "POST", ts.URL+"/v1/solve", "(declare-fun y () Int)(assert (> y 0))", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("solve under saturation: %d, want 429", resp.StatusCode)
	}

	var chk SessionCheckResponse
	resp = do(t, "POST", base+"/check", "", &chk)
	if resp.StatusCode != http.StatusOK || chk.Status != "sat" {
		t.Fatalf("session check under saturation: %d %q, want 200 sat", resp.StatusCode, chk.Status)
	}
}

// TestSessionMetricsExposed: the session tier shows up in /metrics and
// /stats after use.
func TestSessionMetricsExposed(t *testing.T) {
	_, ts := newSessionTestServer(t, Config{})
	id := createSession(t, ts, `{"deterministic": true}`)
	base := ts.URL + "/v1/session/" + id
	do(t, "POST", base+"/assert",
		"(set-logic QF_NIA)(declare-fun x () Int)(assert (= (* x x) 49))(assert (> x 0))", nil)
	var chk SessionCheckResponse
	do(t, "POST", base+"/check", "", &chk)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"staub_session_live", "staub_session_bytes",
		"staub_session_created_total", "staub_session_checks_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	var stats struct {
		Sessions struct {
			Live    int   `json:"live"`
			Created int64 `json:"created"`
		} `json:"sessions"`
	}
	do(t, "GET", ts.URL+"/stats", "", &stats)
	if stats.Sessions.Live != 1 || stats.Sessions.Created < 1 {
		t.Errorf("/stats sessions = %+v", stats.Sessions)
	}
}
