package server

import (
	"net/url"
	"testing"
)

// FuzzDecodeSolveRequest throws arbitrary bytes, content types and query
// strings at the solve and batch request decoders. Neither may panic, and
// any request either accepts must satisfy the knob invariants the
// handlers rely on (non-empty constraints, known mode/profile,
// non-negative timeout and width).
func FuzzDecodeSolveRequest(f *testing.F) {
	f.Add(`{"constraint":"(check-sat)","mode":"pipeline","timeout_ms":100}`, "application/json", "")
	f.Add(`{"constraint":"(assert true)","profile":"secunda","slot":true}`, "application/json", "mode=solve")
	f.Add("(set-logic QF_NIA)\n(assert (= x 1))", "text/plain", "timeout=5s&width=8")
	f.Add(`{"constraint": 7}`, "application/json", "")
	f.Add(`{`, "application/json", "")
	f.Add(`{}{}`, "application/json", "")
	f.Add("", "", "profile=prima")
	f.Add(`  {"constraint":"x"}`, "text/plain", "slot=1") // JSON sniffing on non-JSON content type
	f.Add(`{"constraints":["(check-sat)"],"mode":"portfolio"}`, "application/json", "over=1")
	f.Add(`{"constraints":[],"constraint":"x"}`, "application/json", "")
	f.Fuzz(func(t *testing.T, body, contentType, rawQuery string) {
		query, err := url.ParseQuery(rawQuery)
		if err != nil {
			return
		}
		if req, err := decodeSolveRequest(contentType, []byte(body), query); err == nil {
			if req.Constraint == "" {
				t.Fatalf("accepted request with empty constraint: %+v", req)
			}
			checkKnobs(t, req)
		}
		if req, err := decodeBatchRequest([]byte(body), query); err == nil {
			if len(req.Constraints) == 0 {
				t.Fatalf("accepted batch without constraints: %+v", req)
			}
			checkKnobs(t, req.SolveRequest)
		}
	})
}

// checkKnobs fails t if an accepted request carries a knob the handlers
// do not expect.
func checkKnobs(t *testing.T, req SolveRequest) {
	t.Helper()
	switch req.Mode {
	case "", "pipeline", "portfolio", "solve":
	default:
		t.Fatalf("accepted unknown mode %q", req.Mode)
	}
	switch req.Profile {
	case "", "prima", "secunda":
	default:
		t.Fatalf("accepted unknown profile %q", req.Profile)
	}
	if req.TimeoutMS < 0 {
		t.Fatalf("accepted negative timeout %d", req.TimeoutMS)
	}
	if req.Width < 0 {
		t.Fatalf("accepted negative width %d", req.Width)
	}
}
