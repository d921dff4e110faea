// Package harness runs the paper's experiments: it measures original
// (unbounded) solving against the STAUB pipeline across the generated
// benchmark corpora and reproduces every table and figure of the
// evaluation section — tractability improvements (Table 2), geometric-mean
// speedups with the fixed-width ablation and the over-approximation mode
// (Table 3), the fixed-width tradeoff sweep (Figure 2), before/after
// scatter data (Figure 7), and the termination-client summary (Figure 8).
//
// All measurements follow the paper's portfolio methodology: a constraint
// only improves when the full STAUB pipeline (T_trans + T_post + T_check)
// beats the original solve and the bounded model verifies; everything else
// reverts, so no constraint is reported slower. Timeouts contribute the
// full timeout duration, as in the paper.
package harness

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"staub/internal/benchgen"
	"staub/internal/core"
	"staub/internal/engine"
	"staub/internal/solver"
	"staub/internal/status"
)

// Mode identifies a transformation configuration measured per instance.
type Mode int

// Measurement modes.
const (
	// ModeStaub uses abstract-interpretation width inference.
	ModeStaub Mode = iota
	// ModeFixed8 and ModeFixed16 are the paper's fixed-width ablations.
	ModeFixed8
	ModeFixed16
	// ModeOver runs the over-approximation pipeline: linearized nonlinear
	// multiplication plus a-priori bound certificates, whose bounded
	// unsat is a sound unsat — the only mode that can win with an unsat.
	ModeOver
	numModes
)

func (m Mode) String() string {
	switch m {
	case ModeStaub:
		return "STAUB"
	case ModeFixed8:
		return "Fixed 8-bit"
	case ModeFixed16:
		return "Fixed 16-bit"
	case ModeOver:
		return "STAUB+Over"
	default:
		return "?"
	}
}

// Options configures an experiment run.
type Options struct {
	// Timeout is the per-solve budget (the paper's 300s, scaled down;
	// default 1500ms).
	Timeout time.Duration
	// Seed drives benchmark generation.
	Seed int64
	// Counts gives the number of instances per logic; zero entries fall
	// back to defaults scaled from the paper's suite sizes.
	Counts map[string]int
	// Profiles lists the solver profiles to measure (default both).
	Profiles []solver.Profile
	// Modes lists the transformation modes to measure (default all).
	Modes []Mode
	// Progress, when non-nil, receives one line per measured instance.
	Progress io.Writer
	// Jobs is the solve worker count (0 selects GOMAXPROCS).
	Jobs int
	// Cache, when non-nil, memoizes solves across runs and experiments;
	// identical (constraint, configuration) jobs are solved once.
	Cache *engine.Cache
	// CubeVars, when positive, replaces every pipeline measurement's
	// bounded solve with cube-and-conquer over 2^CubeVars assumption
	// cubes. Zero keeps the sequential solve, so published tables are
	// unchanged.
	CubeVars int
}

func (o Options) withDefaults() Options {
	if o.Timeout == 0 {
		o.Timeout = 1500 * time.Millisecond
	}
	if o.Counts == nil {
		o.Counts = map[string]int{}
	}
	defaults := map[string]int{"QF_NIA": 100, "QF_LIA": 60, "QF_NRA": 48, "QF_LRA": 24}
	for logic, n := range defaults {
		if o.Counts[logic] == 0 {
			o.Counts[logic] = n
		}
	}
	if len(o.Profiles) == 0 {
		o.Profiles = []solver.Profile{solver.Prima, solver.Secunda}
	}
	if len(o.Modes) == 0 {
		o.Modes = []Mode{ModeStaub, ModeFixed8, ModeFixed16, ModeOver}
	}
	return o
}

// ModeResult is one pipeline measurement.
type ModeResult struct {
	Outcome core.Outcome
	// Status is the verdict sound for the ORIGINAL constraint. Only
	// ModeOver can report unsat here — the under-approximating modes'
	// bounded unsats are inconclusive and surface as unknown.
	Status   status.Status
	Total    time.Duration
	Width    int
	Verified bool
}

// Decided reports whether the measurement produced a verdict sound for
// the original constraint: a verified sat, or a sound unsat from an
// exact/over-approximating chain.
func (mr ModeResult) Decided() bool {
	return mr.Verified || mr.Status == status.Unsat
}

// Record is the full measurement of one instance under one profile.
type Record struct {
	Inst    benchgen.Instance
	Profile solver.Profile
	// TPre is the original solving time (timeouts count the full budget).
	TPre time.Duration
	// PreStatus is the original verdict.
	PreStatus status.Status
	// Modes holds the pipeline measurements keyed by Mode.
	Modes map[Mode]ModeResult
}

// FinalTime returns the portfolio completion time under the given mode:
// the better of the original run and the pipeline, when the pipeline
// decided — a verified sat, or ModeOver's sound unsat.
func (r Record) FinalTime(m Mode) time.Duration {
	mr, ok := r.Modes[m]
	if !ok || !mr.Decided() {
		return r.TPre
	}
	return min(r.TPre, mr.Total)
}

// Alpha returns the speedup ratio T_pre / T_final for the mode. The
// denominator is floored at one nanosecond — the same 1e-9 floor GeoMean
// applies — so degenerate final times cannot produce infinities.
func (r Record) Alpha(m Mode) float64 {
	final := r.FinalTime(m).Seconds()
	if final < 1e-9 {
		final = 1e-9
	}
	return r.TPre.Seconds() / final
}

// Tractability reports whether the mode turned an original timeout into a
// decided verdict (a verified sat, or ModeOver's sound unsat).
func (r Record) Tractability(m Mode) bool {
	mr, ok := r.Modes[m]
	return ok && r.PreStatus == status.Unknown && mr.Decided()
}

// StatusAgree reports that a measured verdict is consistent with a
// reference verdict: they are equal, or the reference decided nothing
// (unknown), which constrains nothing. A measured unknown against a
// decided reference reports false — callers use this to check that a
// verdict matched a reference that did decide.
func StatusAgree(got, ref status.Status) bool {
	return got == ref || ref == status.Unknown
}

// plan lays out one experiment run as a flat job list plus the bookkeeping
// to reduce engine results back into Records in a deterministic order
// (logic → profile → instance, exactly the submission order).
type plan struct {
	jobs    []engine.Job
	entries []planEntry
	opts    Options
}

// planEntry maps one Record onto its job indices.
type planEntry struct {
	logic   string
	inst    benchgen.Instance
	profile solver.Profile
	pre     int
	modes   map[Mode]int
}

// modeConfig is the pipeline configuration measured for a mode. All
// harness measurements run in deterministic virtual-time mode, so records
// and tables are a pure function of the benchmark seed.
func modeConfig(m Mode, profile solver.Profile, o Options) core.Config {
	cfg := core.Config{
		Timeout:       o.Timeout,
		Profile:       profile,
		Deterministic: true,
		CubeVars:      o.CubeVars,
	}
	switch m {
	case ModeFixed8:
		cfg.FixedWidth = 8
	case ModeFixed16:
		cfg.FixedWidth = 16
	case ModeOver:
		cfg.OverApprox = true
	}
	return cfg
}

// buildPlan generates the suites and produces one pre-solve job plus one
// pipeline job per requested mode for every (instance, profile) pair.
func buildPlan(o Options) (*plan, error) {
	p := &plan{opts: o}
	for _, logic := range benchgen.Logics() {
		n := o.Counts[logic]
		if n == 0 {
			continue
		}
		insts, err := benchgen.Suite(logic, n, o.Seed)
		if err != nil {
			return nil, err
		}
		for _, profile := range o.Profiles {
			for _, inst := range insts {
				e := planEntry{
					logic: logic, inst: inst, profile: profile,
					pre:   len(p.jobs),
					modes: map[Mode]int{},
				}
				p.jobs = append(p.jobs, engine.Job{
					Kind:       engine.KindSolve,
					Constraint: inst.Constraint,
					Config: core.Config{
						Profile:       profile,
						Timeout:       o.Timeout,
						Deterministic: true,
					},
				})
				for _, m := range o.Modes {
					e.modes[m] = len(p.jobs)
					p.jobs = append(p.jobs, engine.Job{
						Kind:       engine.KindPipeline,
						Constraint: inst.Constraint,
						Config:     modeConfig(m, profile, o),
					})
				}
				p.entries = append(p.entries, e)
			}
		}
	}
	return p, nil
}

// reduce folds job results back into Records grouped by logic, in plan
// order — byte-identical tables regardless of completion order.
func (p *plan) reduce(results []engine.Result) map[string][]Record {
	o := p.opts
	out := map[string][]Record{}
	for _, e := range p.entries {
		rec := Record{
			Inst:    e.inst,
			Profile: e.profile,
			Modes:   map[Mode]ModeResult{},
		}
		pre := results[e.pre].Solve
		rec.PreStatus = pre.Status
		if pre.Status == status.Unknown {
			rec.TPre = o.Timeout
		} else {
			rec.TPre = solver.VirtualDuration(pre.Work)
		}
		for m, idx := range e.modes {
			pl := results[idx].Pipeline
			total := pl.Total
			if total > o.Timeout {
				total = o.Timeout
			}
			rec.Modes[m] = ModeResult{
				Outcome:  pl.Outcome,
				Status:   pl.Status,
				Total:    total,
				Width:    pl.Width,
				Verified: pl.Outcome == core.OutcomeVerified,
			}
		}
		out[e.logic] = append(out[e.logic], rec)
		if o.Progress != nil {
			fmt.Fprintf(o.Progress, "%s %s/%s pre=%v(%v) staub=%v\n",
				e.logic, e.profile, e.inst.Name, rec.PreStatus,
				rec.TPre.Round(time.Millisecond),
				rec.Modes[ModeStaub].Outcome)
		}
	}
	return out
}

// Run measures every instance of every requested logic under every
// profile and returns the records grouped by logic. Jobs are scheduled
// across Options.Jobs workers through the engine; cancelling the context
// aborts the run. Measurements use deterministic virtual time, so the
// records are identical for any worker count.
func Run(ctx context.Context, o Options) (map[string][]Record, error) {
	o = o.withDefaults()
	p, err := buildPlan(o)
	if err != nil {
		return nil, err
	}
	eng := engine.New(o.Jobs, o.Cache)
	results := eng.Run(ctx, p.jobs)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return p.reduce(results), nil
}

// RunSequential measures the same plan as Run on a single goroutine with
// no worker pool and no cache — the oracle the engine's differential test
// compares against.
func RunSequential(ctx context.Context, o Options) (map[string][]Record, error) {
	o = o.withDefaults()
	p, err := buildPlan(o)
	if err != nil {
		return nil, err
	}
	results := make([]engine.Result, len(p.jobs))
	for i, job := range p.jobs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		results[i] = engine.ExecuteJob(ctx, job)
	}
	return p.reduce(results), nil
}

// GeoMean returns the geometric mean of the values (1.0 for empty input).
func GeoMean(vals []float64) float64 {
	if len(vals) == 0 {
		return 1
	}
	sum := 0.0
	for _, v := range vals {
		if v <= 0 {
			v = 1e-9
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}

// GeoMeanDurations returns the geometric mean of durations in seconds.
func GeoMeanDurations(ds []time.Duration) float64 {
	vals := make([]float64, len(ds))
	for i, d := range ds {
		vals[i] = d.Seconds()
	}
	return GeoMean(vals)
}
