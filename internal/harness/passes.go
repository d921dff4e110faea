package harness

import (
	"context"
	"fmt"
	"io"
	"time"

	"staub/internal/core"
	"staub/internal/engine"
	"staub/internal/pipeline"
	"staub/internal/smt"
)

// PassRow aggregates one pipeline stage across an experiment: how often
// the pass ran, its total deterministic work, and that work's virtual
// time.
type PassRow struct {
	Pass    string
	Runs    int
	Work    int64
	Virtual time.Duration
}

// PassesExperiment profiles the pipeline per stage: the refinement corpus
// runs through two deterministic configurations (plain pipeline and the
// §6.2 refinement loop) with per-stage tracing on, and every span of
// every run is aggregated by pass name. Jobs are scheduled through the
// engine like every other experiment, so the traces come from exactly
// the code path production solves take.
func PassesExperiment(ctx context.Context, o Options) ([]PassRow, error) {
	o = o.withDefaults()
	var jobs []engine.Job
	for _, inst := range refinementCorpus {
		c, err := smt.ParseScript(inst.Src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", inst.Name, err)
		}
		base := core.Config{
			Timeout:       o.Timeout,
			Seed:          o.Seed,
			Deterministic: true,
			Trace:         true,
		}
		refineCfg := base
		refineCfg.RefineRounds = 3
		for _, cfg := range []core.Config{base, refineCfg} {
			jobs = append(jobs, engine.Job{Kind: engine.KindPipeline, Constraint: c, Config: cfg})
		}
	}
	results := engine.New(o.Jobs, o.Cache).Run(ctx, jobs)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	agg := map[string]*PassRow{}
	for _, r := range results {
		for _, sp := range r.Pipeline.Trace {
			row := agg[sp.Pass]
			if row == nil {
				row = &PassRow{Pass: sp.Pass}
				agg[sp.Pass] = row
			}
			row.Runs++
			row.Work += sp.Work
			row.Virtual += sp.Virtual
		}
	}
	// Canonical pipeline order, not alphabetical: the table reads as the
	// stages execute.
	order := []string{
		pipeline.PassInferBounds, pipeline.PassTranslate,
		pipeline.PassReduceIntToBV, pipeline.PassBoundedSolve, pipeline.PassVerifyModel,
	}
	rows := make([]PassRow, 0, len(agg))
	for _, name := range order {
		if row := agg[name]; row != nil {
			rows = append(rows, *row)
		}
	}
	return rows, nil
}

// PassesPrint renders the per-stage profile with each stage's share of the
// total deterministic work.
func PassesPrint(w io.Writer, rows []PassRow) {
	fmt.Fprintln(w, "Per-stage pipeline profile: refinement corpus under plain and refine configs (deterministic virtual time).")
	fmt.Fprintf(w, "%-14s %6s %12s %12s %7s\n", "pass", "runs", "work-units", "virtual", "share%")
	var totalWork int64
	for _, r := range rows {
		totalWork += r.Work
	}
	for _, r := range rows {
		share := 0.0
		if totalWork > 0 {
			share = 100 * float64(r.Work) / float64(totalWork)
		}
		fmt.Fprintf(w, "%-14s %6d %12d %12v %7.1f\n",
			r.Pass, r.Runs, r.Work, r.Virtual.Round(time.Microsecond), share)
	}
}
