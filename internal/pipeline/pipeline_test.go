package pipeline

import (
	"context"
	"strings"
	"testing"
	"time"

	"staub/internal/smt"
	"staub/internal/solver"
)

func parse(t *testing.T, src string) *smt.Constraint {
	t.Helper()
	c, err := smt.ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

const satSrc = `
	(set-logic QF_NIA)
	(declare-fun x () Int)
	(assert (= (* x x) 49))
	(assert (> x 0))
	(check-sat)`

func TestRegistryLookup(t *testing.T) {
	for _, name := range []string{
		PassInferBounds, PassTranslate, PassBoundedSolve, PassVerifyModel,
	} {
		p, ok := Lookup(name)
		if !ok {
			t.Fatalf("standard pass %q not registered", name)
		}
		if p.Name != name || p.Run == nil || p.Doc == "" {
			t.Errorf("pass %q incomplete: %+v", name, p)
		}
	}
	if _, ok := Lookup("no-such-pass"); ok {
		t.Error("Lookup of unknown pass succeeded")
	}
}

func TestMustPassesPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustPasses with unknown name did not panic")
		}
	}()
	MustPasses("no-such-pass")
}

func TestFigure3PassNames(t *testing.T) {
	base := []string{PassInferBounds, PassTranslate, PassBoundedSolve, PassVerifyModel}
	if got := Figure3PassNames(Config{}); strings.Join(got, ",") != strings.Join(base, ",") {
		t.Errorf("plain config: %v", got)
	}
	cubed := Figure3PassNames(Config{CubeVars: 2})
	if !contains(cubed, PassCubeSolve) || contains(cubed, PassBoundedSolve) {
		t.Errorf("CubeVars must replace %q with %q: %v", PassBoundedSolve, PassCubeSolve, cubed)
	}
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

func TestTraceRecordsPassSequence(t *testing.T) {
	c := parse(t, satSrc)
	cfg := Config{Timeout: time.Second, Deterministic: true, Trace: true}
	res := Run(context.Background(), c, cfg, nil)
	if res.Outcome != OutcomeVerified {
		t.Fatalf("outcome = %v, want verified", res.Outcome)
	}
	var got []string
	for _, sp := range res.Trace {
		got = append(got, sp.Pass)
	}
	want := []string{PassInferBounds, PassTranslate, PassBoundedSolve, PassVerifyModel}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("trace = %v, want %v", got, want)
	}
	solve := res.Trace[2]
	if solve.Work <= 0 {
		t.Errorf("bounded-solve span has no work: %+v", solve)
	}
	if solve.Virtual != solver.VirtualDuration(solve.Work) {
		t.Errorf("span virtual time %v does not match its work %d", solve.Virtual, solve.Work)
	}
	for _, sp := range res.Trace {
		if sp.Wall < 0 {
			t.Errorf("negative wall time in span %+v", sp)
		}
		if sp.Round != 0 {
			t.Errorf("unrefined run has round %d in span %+v", sp.Round, sp)
		}
	}
}

func TestTraceOffByDefault(t *testing.T) {
	c := parse(t, satSrc)
	res := Run(context.Background(), c, Config{Timeout: time.Second, Deterministic: true}, nil)
	if res.Outcome != OutcomeVerified {
		t.Fatalf("outcome = %v, want verified", res.Outcome)
	}
	if len(res.Trace) != 0 {
		t.Fatalf("trace recorded without Config.Trace: %v", res.Trace)
	}
}

func TestTraceRefinementRounds(t *testing.T) {
	// unsat-square-7 style: x*x = 7 has no integer solution, so refinement
	// keeps widening; every retry's spans must be stamped with its round.
	c := parse(t, `
		(set-logic QF_NIA)
		(declare-fun x () Int)
		(assert (= (* x x) 7))
		(check-sat)`)
	cfg := Config{Timeout: time.Second, Deterministic: true, Trace: true, RefineRounds: 2}
	res := Run(context.Background(), c, cfg, nil)
	if res.Refined == 0 {
		t.Skip("instance did not refine; corpus change?")
	}
	maxRound := 0
	for _, sp := range res.Trace {
		if sp.Round > maxRound {
			maxRound = sp.Round
		}
	}
	if maxRound != res.Refined {
		t.Errorf("max span round %d != Refined %d", maxRound, res.Refined)
	}
}

func TestPassMetricsSnapshotAdvances(t *testing.T) {
	names := []string{PassInferBounds, PassTranslate, PassBoundedSolve, PassVerifyModel}
	before := map[string]int64{}
	for _, name := range names {
		before[name] = aggFor(name).runs.Value()
	}
	workBefore := aggFor(PassBoundedSolve).work.Value()
	c := parse(t, satSrc)
	Run(context.Background(), c, Config{Timeout: time.Second, Deterministic: true}, nil)
	for _, name := range names {
		if after := aggFor(name).runs.Value(); after <= before[name] {
			t.Errorf("pass %q runs did not advance: %d → %d", name, before[name], after)
		}
	}
	if aggFor(PassBoundedSolve).work.Value() <= workBefore {
		t.Errorf("bounded-solve work did not advance")
	}
}

func TestOutcomeStrings(t *testing.T) {
	want := map[Outcome]string{
		OutcomeVerified:           "verified",
		OutcomeBoundedUnsat:       "bounded-unsat",
		OutcomeSemanticDifference: "semantic-difference",
		OutcomeBoundedUnknown:     "bounded-unknown",
		OutcomeTransformFailed:    "transform-failed",
		OutcomeNarrowUnsat:        "narrow-unsat",
		OutcomeNoReduction:        "no-reduction",
		OutcomeUnknown:            "unknown",
		Outcome(99):               "unknown",
	}
	for o, s := range want {
		if o.String() != s {
			t.Errorf("Outcome(%d).String() = %q, want %q", int(o), o.String(), s)
		}
	}
}
