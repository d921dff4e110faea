package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// overUnsatLIA is doubly bounded and unsat: the over leg certifies a
// complete width and its bounded unsat is a sound unsat.
const overUnsatLIA = `(set-logic QF_LIA)
(declare-fun x () Int)
(declare-fun y () Int)
(assert (>= x 0))
(assert (<= x 10))
(assert (>= y 0))
(assert (<= y 10))
(assert (>= (+ x y) 25))
(check-sat)`

func TestSolveOverPipelineSoundUnsat(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		Constraint: overUnsatLIA, Mode: "pipeline", Over: true, Deterministic: true,
	})
	out := decodeSolve(t, resp)
	if out.Status != "unsat" {
		t.Fatalf("status = %q, want unsat (outcome %q)", out.Status, out.Outcome)
	}
	if out.Direction != "exact" {
		t.Errorf("direction = %q, want exact", out.Direction)
	}
	if out.Outcome != "bounded-unsat" {
		t.Errorf("outcome = %q, want bounded-unsat", out.Outcome)
	}
}

func TestSolveOverQueryParam(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/solve?mode=portfolio&over=1&deterministic=1",
		"text/plain", strings.NewReader(overUnsatLIA))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := decodeSolve(t, resp)
	if out.Status != "unsat" {
		t.Fatalf("status = %q, want unsat", out.Status)
	}
	// Either leg may win the race, but an unsat can only have come from
	// the over leg or the unbounded one; if the over leg won, the wire
	// must say so with its direction.
	if out.FromOver && out.Direction != "exact" {
		t.Errorf("over-leg win with direction %q, want exact", out.Direction)
	}
}

// TestSolveResponseSchema pins the wire fields the direction refactor
// added: a pipeline response always carries a direction, an
// under-approximating one is "under", and unknown fields never creep in
// silently (the decode-into-map round trip enumerates what is present).
func TestSolveResponseSchema(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		Constraint: satNIA, Mode: "pipeline", Deterministic: true,
	})
	raw := readBody(t, resp)
	var fields map[string]any
	if err := json.Unmarshal([]byte(raw), &fields); err != nil {
		t.Fatal(err)
	}
	if got := fields["direction"]; got != "under" {
		t.Errorf(`direction = %v, want "under" (raw: %s)`, got, raw)
	}
	if got := fields["status"]; got != "sat" {
		t.Errorf("status = %v, want sat", got)
	}
	if _, ok := fields["from_over"]; ok {
		t.Errorf("from_over present on a non-portfolio response: %s", raw)
	}
	// Round-trip: the typed struct must reproduce the same JSON object.
	var typed SolveResponse
	if err := json.Unmarshal([]byte(raw), &typed); err != nil {
		t.Fatal(err)
	}
	re, err := json.Marshal(typed)
	if err != nil {
		t.Fatal(err)
	}
	var fields2 map[string]any
	if err := json.Unmarshal(re, &fields2); err != nil {
		t.Fatal(err)
	}
	if len(fields2) != len(fields) {
		t.Errorf("round-trip changed the field set: %v vs %v", fields, fields2)
	}
}

func TestBatchOverFlag(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/batch", BatchRequest{
		Constraints: []string{overUnsatLIA, satNIA},
		SolveRequest: SolveRequest{
			Mode:          "pipeline",
			Over:          true,
			Deterministic: true,
		},
	})
	var out BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 2 {
		t.Fatalf("batch results = %d, want 2", len(out.Results))
	}
	if out.Results[0].Status != "unsat" {
		t.Errorf("batch[0] status = %q, want unsat", out.Results[0].Status)
	}
	// The sat instance must not be claimed without verification; any
	// status except a wrong definitive one is acceptable, and a sat must
	// carry a model.
	if out.Results[1].Status == "sat" && len(out.Results[1].Model) == 0 {
		t.Errorf("batch[1] sat with no model")
	}
}

// TestServerWideOverDefault: a server started with Config.OverApprox
// applies the over leg to requests that never mention it.
func TestServerWideOverDefault(t *testing.T) {
	_, ts := newTestServer(t, Config{OverApprox: true})
	resp := postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		Constraint: overUnsatLIA, Mode: "pipeline", Deterministic: true,
	})
	out := decodeSolve(t, resp)
	if out.Status != "unsat" {
		t.Fatalf("status = %q, want unsat via the server-wide over default", out.Status)
	}
}
