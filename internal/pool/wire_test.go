package pool

import (
	"encoding/json"
	"math/big"
	"reflect"
	"testing"
	"time"

	"staub/internal/bv"
	"staub/internal/core"
	"staub/internal/engine"
	"staub/internal/eval"
	"staub/internal/pipeline"
	"staub/internal/smt"
	"staub/internal/solver"
	"staub/internal/status"
)

const wireNIA = `(set-logic QF_NIA)
(declare-fun x () Int)
(declare-fun y () Int)
(assert (= (* x y) 21))
(check-sat)`

const wireMixed = `(set-logic QF_ALIA)
(declare-fun b () Bool)
(declare-fun n () Int)
(declare-fun r () Real)
(declare-fun v () (_ BitVec 8))
(assert (or b (and (> n 0) (bvult v (_ bv200 8)))))
(check-sat)`

func mustParse(t *testing.T, src string) *smt.Constraint {
	t.Helper()
	c, err := smt.ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestWireJobRoundTrip: a job survives encode → JSON → decode with an
// identical cache key and an identical Config for every kind, which is
// the whole point of the wire format — the peer must address the same
// cache entry and run the same solve.
func TestWireJobRoundTrip(t *testing.T) {
	c := mustParse(t, wireNIA)
	jobs := []engine.Job{
		{Kind: engine.KindSolve, Constraint: c, Config: core.Config{Profile: solver.Secunda,
			Timeout: 750 * time.Millisecond, Seed: 3, Deterministic: true}},
		{Kind: engine.KindPipeline, Constraint: c, Config: core.Config{
			Timeout: time.Second, Profile: solver.Prima, Trace: true,
			RefineRounds: 2, Seed: 9, Deterministic: true, StartWidth: 4,
			WidthStep: 2, CubeVars: 3, OverApprox: true}},
		{Kind: engine.KindPortfolio, Constraint: c, Config: core.Config{
			Timeout: 2 * time.Second, FixedWidth: 16, FreshRefine: true}},
		{Kind: engine.KindPipeline, Constraint: c, Config: everyConfigField(t)},
	}
	for _, j := range jobs {
		blob, err := json.Marshal(EncodeJob(j.Key(), j))
		if err != nil {
			t.Fatal(err)
		}
		var w WireJob
		if err := json.Unmarshal(blob, &w); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeJob(w)
		if err != nil {
			t.Fatalf("kind %d: DecodeJob: %v", j.Kind, err)
		}
		if got.Key() != j.Key() {
			t.Errorf("kind %d: decoded job key %s != original %s — the peer would reject or mis-cache",
				j.Kind, got.Key()[:12], j.Key()[:12])
		}
		if !reflect.DeepEqual(got.Config, j.Config) {
			t.Errorf("kind %d: decoded Config %+v != original %+v", j.Kind, got.Config, j.Config)
		}
	}
}

// everyConfigField returns a Config with every field, nested ones
// included, set to a distinct non-zero value (the profile
// to Secunda, the only valid non-zero one), so a field that stops
// surviving JSON fails the round trip.
func everyConfigField(t *testing.T) core.Config {
	var cfg core.Config
	n := int64(0)
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			n++
			switch f.Kind() {
			case reflect.Struct:
				fill(f)
			case reflect.Bool:
				f.SetBool(true)
			case reflect.Int, reflect.Int64:
				f.SetInt(n)
			default:
				t.Fatalf("Config field %s is a %v; extend everyConfigField", v.Type().Field(i).Name, f.Kind())
			}
		}
	}
	fill(reflect.ValueOf(&cfg).Elem())
	cfg.Profile = solver.Secunda
	return cfg
}

// TestWireJobRejectsSkew: schema drift and corrupt enums fail decode
// instead of producing a half-right job.
func TestWireJobRejectsSkew(t *testing.T) {
	c := mustParse(t, wireNIA)
	good := EncodeJob("k", engine.Job{Kind: engine.KindSolve, Constraint: c, Config: core.Config{Timeout: time.Second}})
	cases := []struct {
		name   string
		mutate func(*WireJob)
	}{
		{"schema", func(w *WireJob) { w.Schema = SchemaVersion + 1 }},
		{"kind", func(w *WireJob) { w.Kind = 99 }},
		{"profile", func(w *WireJob) { w.Config.Profile = -1 }},
		{"constraint", func(w *WireJob) { w.Constraint = "(assert" }},
	}
	for _, tc := range cases {
		w := good
		tc.mutate(&w)
		if _, err := DecodeJob(w); err == nil {
			t.Errorf("%s skew decoded without error", tc.name)
		}
	}
}

// TestWireResultRoundTrip: results of every kind survive the wire with
// verdict, model (across bool/int/real/bitvector sorts), direction and
// cost intact, and the reconstructed model still verifies.
func TestWireResultRoundTrip(t *testing.T) {
	c := mustParse(t, wireMixed)
	model := eval.Assignment{
		"b": eval.BoolValue(true),
		"n": eval.IntValue(big.NewInt(-42)),
		"r": eval.RatValue(big.NewRat(7, 3)),
		"v": eval.BVValue(bv.New(8, big.NewInt(199))),
	}
	if !solver.VerifyModel(c, model) {
		t.Fatal("test model does not verify — fix the fixture")
	}

	t.Run("solve", func(t *testing.T) {
		j := engine.Job{Kind: engine.KindSolve, Constraint: c}
		res := engine.Result{Solve: solver.Result{
			Status: status.Sat, Model: model, Elapsed: 12 * time.Millisecond,
			Work: 345, Engine: "cdcl"}}
		got := roundTripResult(t, j, res)
		if got.Solve.Status != status.Sat || got.Solve.Work != 345 || got.Solve.Engine != "cdcl" {
			t.Errorf("solve fields lost: %+v", got.Solve)
		}
		if !solver.VerifyModel(c, got.Solve.Model) {
			t.Error("round-tripped solve model no longer verifies")
		}
	})

	t.Run("pipeline", func(t *testing.T) {
		j := engine.Job{Kind: engine.KindPipeline, Constraint: c}
		res := engine.Result{Pipeline: core.PipelineResult{
			Outcome: pipeline.OutcomeVerified, Status: status.Sat,
			Direction: pipeline.DirUnder, Model: model,
			TTrans: time.Millisecond, TPost: 2 * time.Millisecond,
			TCheck: 3 * time.Millisecond, Total: 6 * time.Millisecond,
			Width: 8, Refined: 2, SolveWork: 99, Cubes: 4}}
		got := roundTripResult(t, j, res)
		p := got.Pipeline
		if p.Outcome != pipeline.OutcomeVerified || p.Direction != pipeline.DirUnder ||
			p.Width != 8 || p.Refined != 2 || p.TCheck != 3*time.Millisecond ||
			p.SolveWork != 99 || p.Cubes != 4 {
			t.Errorf("pipeline fields lost: %+v", p)
		}
		if !solver.VerifyModel(c, p.Model) {
			t.Error("round-tripped pipeline model no longer verifies")
		}
	})

	t.Run("portfolio-unsat", func(t *testing.T) {
		j := engine.Job{Kind: engine.KindPortfolio, Constraint: c}
		res := engine.Result{Portfolio: core.PortfolioResult{
			Status: status.Unsat, FromOver: true, Elapsed: 5 * time.Millisecond,
			Pipeline: core.PipelineResult{Outcome: pipeline.OutcomeNarrowUnsat,
				Status: status.Unsat, Direction: pipeline.DirOver}}}
		got := roundTripResult(t, j, res)
		pf := got.Portfolio
		if pf.Status != status.Unsat || !pf.FromOver ||
			pf.Pipeline.Direction != pipeline.DirOver {
			t.Errorf("portfolio fields lost: %+v", pf)
		}
	})
}

func roundTripResult(t *testing.T, j engine.Job, res engine.Result) engine.Result {
	t.Helper()
	blob, err := json.Marshal(EncodeResult(j, res))
	if err != nil {
		t.Fatal(err)
	}
	var w WireResult
	if err := json.Unmarshal(blob, &w); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(j, w)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestWireResultRejectsCorruption: a corrupt or hostile payload fails
// decode (and so degrades to a local solve) instead of being trusted.
func TestWireResultRejectsCorruption(t *testing.T) {
	c := mustParse(t, wireMixed)
	j := engine.Job{Kind: engine.KindSolve, Constraint: c}
	good := EncodeResult(j, engine.Result{Solve: solver.Result{Status: status.Sat,
		Model: eval.Assignment{"n": eval.IntValue(big.NewInt(1))}}})
	cases := []struct {
		name   string
		mutate func(*WireResult)
	}{
		{"schema", func(w *WireResult) { w.Schema = 0 }},
		{"kind-mismatch", func(w *WireResult) { w.Kind = int(engine.KindPortfolio) }},
		{"missing-payload", func(w *WireResult) { w.Solve = nil }},
		{"bad-status", func(w *WireResult) { w.Solve.Status = 7 }},
		{"undeclared-var", func(w *WireResult) { w.Solve.Model = map[string]string{"ghost": "1"} }},
		{"bad-int", func(w *WireResult) { w.Solve.Model = map[string]string{"n": "one"} }},
		{"bad-bool", func(w *WireResult) { w.Solve.Model = map[string]string{"b": "yes"} }},
		{"bad-rat", func(w *WireResult) { w.Solve.Model = map[string]string{"r": "∞"} }},
		{"bad-bv", func(w *WireResult) { w.Solve.Model = map[string]string{"v": "(_ bv5 16)"} }},
	}
	for _, tc := range cases {
		w := clone(t, good)
		tc.mutate(&w)
		if _, err := DecodeResult(j, w); err == nil {
			t.Errorf("%s corruption decoded without error", tc.name)
		}
	}
}

func clone(t *testing.T, w WireResult) WireResult {
	t.Helper()
	blob, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var out WireResult
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	return out
}
