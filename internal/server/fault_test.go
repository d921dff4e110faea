package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"staub/internal/chaos"
	"staub/internal/pipeline"
)

// satQuadratic verifies quickly through the pipeline (x=7), giving fault
// tests a second fast constraint with a definitive sat verdict.
const satQuadratic = `(set-logic QF_NIA)
(declare-fun x () Int)
(assert (= (* x x) 49))
(assert (> x 0))
(check-sat)`

func decodeHealth(t *testing.T, resp *http.Response) map[string]any {
	t.Helper()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRecoverMiddlewarePanicIs500 drives the chaos server:solve site: the
// handler panics mid-request, the recovery boundary answers 500 with the
// request ID, and the server keeps serving.
func TestRecoverMiddlewarePanicIs500(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	restore := chaos.Enable(chaos.NewInjector(chaos.Config{
		Seed: 21, Rate: 1, Max: 1, Fault: chaos.FaultPassPanic, Sites: []string{"server:solve"},
	}))
	defer restore()

	resp := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Constraint: unsatLIA, Deterministic: true})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicked request code = %d, want 500", resp.StatusCode)
	}
	id := resp.Header.Get("X-Request-Id")
	if id == "" {
		t.Fatal("panicked response lost its X-Request-Id header")
	}
	if body := readBody(t, resp); !strings.Contains(body, id) {
		t.Errorf("500 body %q does not carry request id %s", body, id)
	}
	if got := s.recoveredPanics.Value(); got != 1 {
		t.Errorf("recovered panic counter = %d, want 1", got)
	}
	if got := s.Admitted(); got != 0 {
		t.Errorf("admitted = %d after the panic, want 0 (slot leaked)", got)
	}

	// Max=1 exhausted the injection: the server must still answer.
	resp2 := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Constraint: satQuadratic, Deterministic: true})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("request after recovered panic = %d, want 200", resp2.StatusCode)
	}
	if out := decodeSolve(t, resp2); out.Status != "sat" {
		t.Errorf("post-panic verdict = %q, want sat", out.Status)
	}
}

// TestSolvePanicFaultIs500 covers the deeper containment layer: a pass
// panic inside the pipeline is recovered by the pipeline itself, and a
// non-portfolio request maps the contained fault to a 500 with the
// request ID rather than inventing a verdict.
func TestSolvePanicFaultIs500(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	restore := chaos.Enable(chaos.NewInjector(chaos.Config{
		Seed: 22, Rate: 1, Fault: chaos.FaultPassPanic,
		Sites: []string{"pass:" + pipeline.PassTranslate},
	}))
	defer restore()

	resp := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Constraint: satNIA, Deterministic: true})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("pipeline-panic solve code = %d, want 500", resp.StatusCode)
	}
	if id := resp.Header.Get("X-Request-Id"); !strings.Contains(readBody(t, resp), id) {
		t.Error("500 body does not carry the request id")
	}
}

// TestSolvePortfolioDegradesOn200 is the graceful-degradation contract on
// the wire: the same pass panic under mode=portfolio still answers 200,
// flagged degraded, with the unbounded leg's verdict.
func TestSolvePortfolioDegradesOn200(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	restore := chaos.Enable(chaos.NewInjector(chaos.Config{
		Seed: 23, Rate: 1, Fault: chaos.FaultPassPanic,
		Sites: []string{"pass:" + pipeline.PassTranslate},
	}))
	defer restore()

	resp := postJSON(t, ts.URL+"/v1/solve",
		SolveRequest{Constraint: unsatLIA, Mode: "portfolio", Deterministic: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded portfolio code = %d, want 200", resp.StatusCode)
	}
	out := decodeSolve(t, resp)
	if out.Status != "unsat" {
		t.Errorf("degraded verdict = %q, want unsat from the unbounded leg", out.Status)
	}
	if !out.Degraded || out.FromSTAUB {
		t.Errorf("degraded/from_staub = %t/%t, want true/false", out.Degraded, out.FromSTAUB)
	}
	if out.Error == "" {
		t.Error("degraded response carries no error description")
	}
}

// TestSolveTransientRetry: a chaos transient fault on the first attempt
// triggers the single jittered retry, which succeeds; the client sees one
// clean, retried 200.
func TestSolveTransientRetry(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	restore := chaos.Enable(chaos.NewInjector(chaos.Config{
		Seed: 24, Rate: 1, Max: 1, Fault: chaos.FaultTransientError, Sites: []string{"engine:job"},
	}))
	defer restore()

	resp := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Constraint: satQuadratic, Deterministic: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retried solve code = %d, want 200", resp.StatusCode)
	}
	out := decodeSolve(t, resp)
	if !out.Retried {
		t.Error("response not marked retried")
	}
	if out.Status != "sat" || out.Error != "" {
		t.Errorf("retried verdict = %q (err %q), want clean sat", out.Status, out.Error)
	}
	if got := s.retries.Value(); got != 1 {
		t.Errorf("retry counter = %d, want 1", got)
	}
}

// TestBatchPerItemIsolation: a malformed constraint yields an error entry
// in its slot; its well-formed siblings still solve and the batch answers
// 200.
func TestBatchPerItemIsolation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	chaos.Disable()

	resp := postJSON(t, ts.URL+"/v1/batch", BatchRequest{
		Constraints:  []string{satQuadratic, "(assert (= x", satNIA},
		SolveRequest: SolveRequest{Deterministic: true},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch with one bad item code = %d, want 200", resp.StatusCode)
	}
	var out BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 3 || len(out.Results) != 3 {
		t.Fatalf("count/results = %d/%d, want 3/3", out.Count, len(out.Results))
	}
	if out.Results[0].Status != "sat" {
		t.Errorf("item 0 = %q, want sat", out.Results[0].Status)
	}
	bad := out.Results[1]
	if bad.Outcome != "parse-error" || bad.Error == "" || bad.Status != "unknown" {
		t.Errorf("item 1 = outcome %q status %q err %q, want parse-error/unknown with message", bad.Outcome, bad.Status, bad.Error)
	}
	if out.Results[2].Status != "sat" {
		t.Errorf("item 2 = %q, want sat", out.Results[2].Status)
	}
}

// TestBatchItemFaultStays200: a chaos pass panic hitting batch items
// degrades those slots to error entries without failing the siblings or
// the batch.
func TestBatchItemFaultStays200(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	restore := chaos.Enable(chaos.NewInjector(chaos.Config{
		Seed: 25, Rate: 1, Max: 1, Fault: chaos.FaultPassPanic,
		Sites: []string{"pass:" + pipeline.PassTranslate},
	}))
	defer restore()

	resp := postJSON(t, ts.URL+"/v1/batch", BatchRequest{
		Constraints:  []string{satNIA, satQuadratic},
		SolveRequest: SolveRequest{Deterministic: true},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch under chaos code = %d, want 200", resp.StatusCode)
	}
	var out BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	var errored, clean int
	for i, r := range out.Results {
		switch {
		case r.Outcome == "error":
			errored++
			if r.Error == "" || r.Status != "unknown" {
				t.Errorf("item %d faulted without error detail: %+v", i, r)
			}
		case r.Status == "sat":
			clean++
		default:
			t.Errorf("item %d: unexpected result %+v", i, r)
		}
	}
	if errored != 1 || clean != 1 {
		t.Errorf("errored/clean = %d/%d, want 1/1 under Max=1 injection", errored, clean)
	}
	if got := s.Admitted(); got != 0 {
		t.Errorf("admitted = %d after batch, want 0", got)
	}
}

// TestHealthzDegradedTransitions walks ok → degraded → ok: a contained
// fault flips /healthz to "degraded" for the configured window, then the
// instance reports healthy again.
func TestHealthzDegradedTransitions(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, DegradedWindow: 300 * time.Millisecond})
	chaos.Disable()

	resp := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Constraint: unsatLIA, Deterministic: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup solve code = %d", resp.StatusCode)
	}
	h, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Body.Close()
	if body := decodeHealth(t, h); body["status"] != "ok" {
		t.Fatalf("pre-fault health = %v, want ok", body["status"])
	}

	// Both retry attempts hit the injected transient fault, so the request
	// completes as a contained fault and trips the degraded window. A
	// fresh constraint keeps the solve out of the cache (cached results
	// never reach the injection site).
	restore := chaos.Enable(chaos.NewInjector(chaos.Config{
		Seed: 26, Rate: 1, Max: 2, Fault: chaos.FaultTransientError, Sites: []string{"engine:job"},
	}))
	resp2 := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Constraint: satQuadratic, Deterministic: true})
	restore()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("transient-faulted solve code = %d, want 200", resp2.StatusCode)
	}
	if out := decodeSolve(t, resp2); out.Error == "" || !out.Retried {
		t.Fatalf("double-transient solve = %+v, want retried error entry", out)
	}

	h2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Body.Close()
	if h2.StatusCode != http.StatusOK {
		t.Fatalf("degraded health code = %d, want 200 (degraded is not down)", h2.StatusCode)
	}
	body := decodeHealth(t, h2)
	if body["status"] != "degraded" {
		t.Fatalf("post-fault health = %v, want degraded", body["status"])
	}
	if n, ok := body["faulted_solves"].(float64); !ok || n < 1 {
		t.Errorf("faulted_solves = %v, want ≥ 1", body["faulted_solves"])
	}

	// The window elapses and the instance reports healthy again.
	time.Sleep(350 * time.Millisecond)
	h3, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer h3.Body.Close()
	if body := decodeHealth(t, h3); body["status"] != "ok" {
		t.Errorf("post-window health = %v, want ok again", body["status"])
	}
}
