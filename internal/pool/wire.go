// wire.go is the peer solve wire format: a lossless-enough JSON
// projection of an engine Job and its Result for the POST /v1/peer/solve
// hop between pool nodes. Every enum travels as its integer value under
// an explicit schema version, decode validates ranges, and sat models
// travel as strings and are re-parsed against the original constraint's
// declared sorts — so the routing client can re-VERIFY a remote model
// locally and a corrupt or version-skewed peer degrades to a local solve
// instead of a wrong answer.
package pool

import (
	"fmt"
	"math/big"
	"strings"
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

// SchemaVersion is the peer wire schema. A peer answering with a
// different version is treated as unreachable (the client falls back to
// a local solve), which makes mixed-version pools safe during rolling
// restarts. Schema 2 ships the job's core.Config whole.
const SchemaVersion = 2

// WireJob is the body of POST /v1/peer/solve.
type WireJob struct {
	Schema int `json:"schema"`
	// Key is the routing client's engine cache key for the job. The peer
	// recomputes the key from the decoded job and rejects a mismatch, so
	// a serialization defect can never serve one constraint's verdict
	// under another's address.
	Key        string `json:"key"`
	Kind       int    `json:"kind"`
	Constraint string `json:"constraint"`
	// Config travels in its default JSON form, so every field the cache
	// key hashes reaches the peer without a hand-kept copy of the list.
	Config core.Config `json:"config"`
}

// WireResult is the peer's answer. Exactly one payload matches the
// job's kind; the peer only ever returns clean results (faulted,
// degraded or cancelled solves answer an HTTP error instead, and the
// client falls back to solving locally).
type WireResult struct {
	Schema    int            `json:"schema"`
	Kind      int            `json:"kind"`
	Solve     *WireSolve     `json:"solve,omitempty"`
	Pipeline  *WirePipeline  `json:"pipeline,omitempty"`
	Portfolio *WirePortfolio `json:"portfolio,omitempty"`
}

// WireSolve mirrors solver.Result.
type WireSolve struct {
	Status    int               `json:"status"`
	Model     map[string]string `json:"model,omitempty"`
	ElapsedNS int64             `json:"elapsed_ns,omitempty"`
	Work      int64             `json:"work,omitempty"`
	TimedOut  bool              `json:"timed_out,omitempty"`
	Engine    string            `json:"engine,omitempty"`
}

// WirePipeline mirrors the pipeline.Result fields the service responds
// with. Trace spans are not forwarded: a remote solve contributes no
// local stage timings, and the span list can be arbitrarily large.
type WirePipeline struct {
	Outcome     int               `json:"outcome"`
	Status      int               `json:"status"`
	Direction   int               `json:"direction"`
	Model       map[string]string `json:"model,omitempty"`
	TTransNS    int64             `json:"t_trans_ns,omitempty"`
	TPostNS     int64             `json:"t_post_ns,omitempty"`
	TCheckNS    int64             `json:"t_check_ns,omitempty"`
	TotalNS     int64             `json:"t_total_ns,omitempty"`
	Width       int               `json:"width,omitempty"`
	Refined     int               `json:"refined,omitempty"`
	Incremental bool              `json:"incremental,omitempty"`
	SolveWork   int64             `json:"solve_work,omitempty"`
	Cubes       int               `json:"cubes,omitempty"`
}

// WirePortfolio mirrors core.PortfolioResult.
type WirePortfolio struct {
	Status    int               `json:"status"`
	Model     map[string]string `json:"model,omitempty"`
	FromSTAUB bool              `json:"from_staub,omitempty"`
	FromOver  bool              `json:"from_over,omitempty"`
	ElapsedNS int64             `json:"elapsed_ns,omitempty"`
	Pipeline  WirePipeline      `json:"pipeline"`
}

// EncodeJob projects a job and its cache key onto the wire.
func EncodeJob(key string, j engine.Job) WireJob {
	return WireJob{
		Schema:     SchemaVersion,
		Key:        key,
		Kind:       int(j.Kind),
		Constraint: j.Constraint.Script(),
		Config:     j.Config,
	}
}

// DecodeJob rebuilds the engine job from the wire, parsing the
// constraint script. It validates the schema version and enum ranges but
// not the key — the peer handler recomputes the key from the returned
// job and compares it to w.Key itself.
func DecodeJob(w WireJob) (engine.Job, error) {
	if w.Schema != SchemaVersion {
		return engine.Job{}, fmt.Errorf("pool: peer wire schema %d, want %d", w.Schema, SchemaVersion)
	}
	if w.Kind < int(engine.KindSolve) || w.Kind > int(engine.KindPortfolio) {
		return engine.Job{}, fmt.Errorf("pool: invalid job kind %d", w.Kind)
	}
	if w.Config.Profile < solver.Prima || w.Config.Profile > solver.Secunda {
		return engine.Job{}, fmt.Errorf("pool: invalid profile %d", w.Config.Profile)
	}
	c, err := smt.ParseScript(w.Constraint)
	if err != nil {
		return engine.Job{}, fmt.Errorf("pool: parsing peer constraint: %w", err)
	}
	return engine.Job{Kind: engine.Kind(w.Kind), Constraint: c, Config: w.Config}, nil
}

// EncodeResult projects a clean engine result onto the wire. The caller
// (the peer handler) must have screened out faulted/degraded results.
func EncodeResult(j engine.Job, res engine.Result) WireResult {
	w := WireResult{Schema: SchemaVersion, Kind: int(j.Kind)}
	switch j.Kind {
	case engine.KindSolve:
		w.Solve = &WireSolve{
			Status: int(res.Solve.Status), Model: modelStrings(res.Solve.Model),
			ElapsedNS: int64(res.Solve.Elapsed), Work: res.Solve.Work,
			TimedOut: res.Solve.TimedOut, Engine: res.Solve.Engine,
		}
	case engine.KindPortfolio:
		p := res.Portfolio
		w.Portfolio = &WirePortfolio{
			Status: int(p.Status), Model: modelStrings(p.Model),
			FromSTAUB: p.FromSTAUB, FromOver: p.FromOver,
			ElapsedNS: int64(p.Elapsed), Pipeline: encodePipeline(p.Pipeline),
		}
	default:
		wp := encodePipeline(res.Pipeline)
		w.Pipeline = &wp
	}
	return w
}

func encodePipeline(p core.PipelineResult) WirePipeline {
	return WirePipeline{
		Outcome: int(p.Outcome), Status: int(p.Status), Direction: int(p.Direction),
		Model:    modelStrings(p.Model),
		TTransNS: int64(p.TTrans), TPostNS: int64(p.TPost),
		TCheckNS: int64(p.TCheck), TotalNS: int64(p.Total),
		Width: p.Width, Refined: p.Refined, Incremental: p.Incremental,
		SolveWork: p.SolveWork, Cubes: p.Cubes,
	}
}

// DecodeResult rebuilds an engine result from the wire against the
// original job (whose constraint supplies the sorts model values are
// parsed under). Any defect — schema or kind mismatch, missing payload,
// out-of-range enum, unparseable model value — is an error; the caller
// falls back to a local solve rather than trusting the payload.
func DecodeResult(j engine.Job, w WireResult) (engine.Result, error) {
	if w.Schema != SchemaVersion {
		return engine.Result{}, fmt.Errorf("pool: peer wire schema %d, want %d", w.Schema, SchemaVersion)
	}
	if w.Kind != int(j.Kind) {
		return engine.Result{}, fmt.Errorf("pool: peer answered kind %d for kind %d job", w.Kind, int(j.Kind))
	}
	switch j.Kind {
	case engine.KindSolve:
		if w.Solve == nil {
			return engine.Result{}, fmt.Errorf("pool: missing solve payload")
		}
		st, err := decodeStatus(w.Solve.Status)
		if err != nil {
			return engine.Result{}, err
		}
		m, err := parseModel(j.Constraint, w.Solve.Model)
		if err != nil {
			return engine.Result{}, err
		}
		return engine.Result{Solve: solver.Result{
			Status: st, Model: m, Elapsed: time.Duration(w.Solve.ElapsedNS),
			Work: w.Solve.Work, TimedOut: w.Solve.TimedOut, Engine: w.Solve.Engine,
		}}, nil
	case engine.KindPortfolio:
		if w.Portfolio == nil {
			return engine.Result{}, fmt.Errorf("pool: missing portfolio payload")
		}
		st, err := decodeStatus(w.Portfolio.Status)
		if err != nil {
			return engine.Result{}, err
		}
		m, err := parseModel(j.Constraint, w.Portfolio.Model)
		if err != nil {
			return engine.Result{}, err
		}
		pp, err := decodePipeline(j.Constraint, w.Portfolio.Pipeline)
		if err != nil {
			return engine.Result{}, err
		}
		return engine.Result{Portfolio: core.PortfolioResult{
			Status: st, Model: m, FromSTAUB: w.Portfolio.FromSTAUB,
			FromOver: w.Portfolio.FromOver, Elapsed: time.Duration(w.Portfolio.ElapsedNS),
			Pipeline: pp,
		}}, nil
	default:
		if w.Pipeline == nil {
			return engine.Result{}, fmt.Errorf("pool: missing pipeline payload")
		}
		pp, err := decodePipeline(j.Constraint, *w.Pipeline)
		if err != nil {
			return engine.Result{}, err
		}
		return engine.Result{Pipeline: pp}, nil
	}
}

func decodePipeline(c *smt.Constraint, w WirePipeline) (core.PipelineResult, error) {
	if w.Outcome < int(pipeline.OutcomeVerified) || w.Outcome > int(pipeline.OutcomeError) {
		return core.PipelineResult{}, fmt.Errorf("pool: invalid outcome %d", w.Outcome)
	}
	if w.Direction < int(pipeline.DirUnder) || w.Direction > int(pipeline.DirExact) {
		return core.PipelineResult{}, fmt.Errorf("pool: invalid direction %d", w.Direction)
	}
	st, err := decodeStatus(w.Status)
	if err != nil {
		return core.PipelineResult{}, err
	}
	m, err := parseModel(c, w.Model)
	if err != nil {
		return core.PipelineResult{}, err
	}
	return core.PipelineResult{
		Outcome: pipeline.Outcome(w.Outcome), Status: st,
		Direction: pipeline.Direction(w.Direction), Model: m,
		TTrans: time.Duration(w.TTransNS), TPost: time.Duration(w.TPostNS),
		TCheck: time.Duration(w.TCheckNS), Total: time.Duration(w.TotalNS),
		Width: w.Width, Refined: w.Refined, Incremental: w.Incremental,
		SolveWork: w.SolveWork, Cubes: w.Cubes,
	}, nil
}

func decodeStatus(v int) (status.Status, error) {
	if v < int(status.Unknown) || v > int(status.Unsat) {
		return status.Unknown, fmt.Errorf("pool: invalid status %d", v)
	}
	return status.Status(v), nil
}

// modelStrings renders an assignment with the same formatting the wire
// API uses.
func modelStrings(m eval.Assignment) map[string]string {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]string, len(m))
	for name, v := range m {
		out[name] = v.String()
	}
	return out
}

// parseModel rebuilds an assignment from its string rendering using the
// constraint's declared variable sorts. Unknown variables, sort/value
// mismatches and floating-point values (whose textual form is lossy) are
// errors — the caller treats the remote result as unusable and solves
// locally, so a garbled model can cost performance but never a verdict.
func parseModel(c *smt.Constraint, m map[string]string) (eval.Assignment, error) {
	if len(m) == 0 {
		return nil, nil
	}
	sorts := make(map[string]smt.Sort, len(c.Vars))
	for _, v := range c.Vars {
		sorts[v.Name] = v.Sort
	}
	out := make(eval.Assignment, len(m))
	for name, s := range m {
		sort, ok := sorts[name]
		if !ok {
			return nil, fmt.Errorf("pool: model names undeclared variable %q", name)
		}
		v, err := parseValue(sort, s)
		if err != nil {
			return nil, fmt.Errorf("pool: model value %s=%q: %w", name, s, err)
		}
		out[name] = v
	}
	return out, nil
}

// parseValue inverts eval.Value.String for the bool, int, real and
// bitvector sorts.
func parseValue(sort smt.Sort, s string) (eval.Value, error) {
	switch sort.Kind {
	case smt.KindBool:
		switch s {
		case "true":
			return eval.BoolValue(true), nil
		case "false":
			return eval.BoolValue(false), nil
		}
		return eval.Value{}, fmt.Errorf("not a boolean")
	case smt.KindInt:
		n, ok := new(big.Int).SetString(s, 10)
		if !ok {
			return eval.Value{}, fmt.Errorf("not an integer")
		}
		return eval.IntValue(n), nil
	case smt.KindReal:
		r, ok := new(big.Rat).SetString(s)
		if !ok {
			return eval.Value{}, fmt.Errorf("not a rational")
		}
		return eval.RatValue(r), nil
	case smt.KindBitVec:
		// bv.Value.String renders "(_ bv<uint> <width>)".
		body, ok := strings.CutPrefix(s, "(_ bv")
		if !ok {
			return eval.Value{}, fmt.Errorf("not a bitvector literal")
		}
		body, ok = strings.CutSuffix(body, ")")
		if !ok {
			return eval.Value{}, fmt.Errorf("not a bitvector literal")
		}
		numStr, widthStr, ok := strings.Cut(body, " ")
		if !ok {
			return eval.Value{}, fmt.Errorf("not a bitvector literal")
		}
		var width int
		if _, err := fmt.Sscanf(widthStr, "%d", &width); err != nil || width != sort.Width {
			return eval.Value{}, fmt.Errorf("bitvector width mismatch")
		}
		n, ok := new(big.Int).SetString(numStr, 10)
		if !ok || n.Sign() < 0 {
			return eval.Value{}, fmt.Errorf("bad bitvector magnitude")
		}
		return eval.BVValue(bv.New(sort.Width, n)), nil
	default:
		return eval.Value{}, fmt.Errorf("unsupported sort %v on the peer wire", sort)
	}
}
