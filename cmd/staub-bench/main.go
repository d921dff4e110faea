// Command staub-bench regenerates the tables and figures of the paper's
// evaluation section on the synthetic benchmark corpora.
//
// All measurements run through the parallel solve engine under
// deterministic virtual time: the output of every experiment is a pure
// function of -seed, -scale and -timeout, identical for any -jobs value.
//
// Usage:
//
//	staub-bench [flags] <experiment>
//
// Experiments:
//
//	table1    theoretical summary (static)
//	table2    tractability improvements per logic/profile/mode
//	table3    geometric-mean speedups with the fixed-width ablations and
//	          the over-approximation mode
//	fig2      fixed-width sweep: cost (2a) and verdict drift (2b)
//	fig7      scatter CSV of original vs final solving time
//	fig8      termination-prover client analysis
//	ablation  width-inference ablation summary (subset of table3)
//	reduce    §6.4 extension: width reduction of wide bitvector corpora
//	refine    §6.2 refinement: incremental session vs fresh per-round loop
//	passes    per-stage pipeline profile from the pass-framework traces
//	over      over-approximation: sound unsats, flips (must be 0), rescues
//	          and the unsat-side speedup against the unbounded oracle
//	all       every experiment in order (excluding reduce, refine and passes)
//
// Flags:
//
//	-timeout D    per-solve budget (default 1.5s; the paper's 300s scaled)
//	-seed N       benchmark generation seed (default 42)
//	-scale F      scale instance counts by F (default 1.0)
//	-jobs N       parallel solve workers (default 0 = GOMAXPROCS)
//	-cube-vars N  cube-and-conquer the bounded solves over 2^N assumption
//	              cubes (default 0 = sequential; published tables assume 0)
//	-v            progress and cache statistics on stderr
//	-version      print the build string and exit
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"staub/internal/buildinfo"
	"staub/internal/engine"
	"staub/internal/harness"
	"staub/internal/metrics"
	"staub/internal/solver"
	"staub/internal/termination"
)

func main() {
	var (
		timeout  = flag.Duration("timeout", 1500*time.Millisecond, "per-solve budget")
		seed     = flag.Int64("seed", 42, "benchmark generation seed")
		scale    = flag.Float64("scale", 1.0, "instance count scale factor")
		jobs     = flag.Int("jobs", 0, "parallel solve workers (0 = GOMAXPROCS)")
		cubeVars = flag.Int("cube-vars", 0, "cube-and-conquer over 2^N assumption cubes (0 = sequential)")
		verbose  = flag.Bool("v", false, "progress and cache statistics on stderr")
		version  = flag.Bool("version", false, "print the build string and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("staub-bench"))
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: staub-bench [flags] table1|table2|table3|fig2|fig7|fig8|ablation|reduce|refine|passes|over|all")
		flag.PrintDefaults()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// One solve cache for the whole invocation: `all` regenerates the
	// same suites for several experiments, and identical (constraint,
	// config) jobs are solved exactly once. Its counters join a metrics
	// registry that, like staub-serve's, also renders every package-level
	// family, so CLI and server share one instrumentation layer.
	cache := engine.NewCache()
	reg := metrics.NewRegistry()
	cache.Register(reg)
	benchStart := time.Now()
	opts := harness.Options{
		Timeout:  *timeout,
		Seed:     *seed,
		Counts:   scaledCounts(*scale),
		Jobs:     *jobs,
		Cache:    cache,
		CubeVars: *cubeVars,
	}
	if *verbose {
		opts.Progress = os.Stderr
	}
	reportCache := func(stage string) {
		if *verbose {
			snap := reg.Snapshot()
			fmt.Fprintf(os.Stderr, "staub-bench: %s: cache %d hits / %d misses\n",
				stage, snap["staub_cache_hits_total"], snap["staub_cache_misses_total"])
			if snap["staub_refine_sessions_total"].(int64) > 0 {
				fmt.Fprintf(os.Stderr, "staub-bench: %s: refine %d sessions / %d rounds, %d clauses retained, gates %d hit / %d miss, %d work units\n",
					stage,
					snap["staub_refine_sessions_total"], snap["staub_refine_rounds_total"],
					snap["staub_refine_clauses_retained_total"],
					snap["staub_refine_gate_hits_total"], snap["staub_refine_gate_misses_total"],
					snap["staub_refine_work_units_total"])
			}
			if conflicts := snap["staub_sat_conflicts_total"].(int64); conflicts > 0 {
				rate := float64(conflicts) / time.Since(benchStart).Seconds()
				fmt.Fprintf(os.Stderr, "staub-bench: %s: sat %d conflicts (%.0f/sec), %d props, %d learned (%d glue), db -%d/%d reductions, pre %d subsumed / %d strengthened\n",
					stage, conflicts, rate, snap["staub_sat_propagations_total"],
					snap["staub_sat_learned_total"], snap["staub_sat_glue_learned_total"],
					snap["staub_sat_clauses_deleted_total"], snap["staub_sat_db_reductions_total"],
					snap["staub_sat_clauses_subsumed_total"], snap["staub_sat_clauses_strengthened_total"])
				fmt.Fprintf(os.Stderr, "staub-bench: %s: sat lbd hist %s\n", stage, solver.FormatLBDHist())
			}
			if snap["staub_cube_solves_total"].(int64) > 0 {
				fmt.Fprintf(os.Stderr, "staub-bench: %s: cube %d solves (%d probe-decided, %d fallbacks), %d legs (%d sat / %d unsat), %d clauses shared / %d imported\n",
					stage, snap["staub_cube_solves_total"], snap["staub_cube_probe_decides_total"],
					snap["staub_cube_fallbacks_total"], snap["staub_cube_legs_total"],
					snap["staub_cube_sat_legs_total"], snap["staub_cube_unsat_legs_total"],
					snap["staub_cube_shared_clauses_total"], snap["staub_cube_imported_clauses_total"])
			}
			if snap["staub_overapprox_runs_total"].(int64) > 0 {
				fmt.Fprintf(os.Stderr, "staub-bench: %s: over %d runs (%d linearized, %d certified widths, %d linear fallbacks), %d sound unsats / %d verified sats / %d reverts\n",
					stage, snap["staub_overapprox_runs_total"], snap["staub_overapprox_linearized_total"],
					snap["staub_overapprox_width_certified_total"], snap["staub_overapprox_linear_fallback_total"],
					snap["staub_overapprox_sound_unsat_total"], snap["staub_overapprox_verified_sat_total"],
					snap["staub_overapprox_reverts_total"])
			}
		}
	}

	exp := flag.Arg(0)
	w := os.Stdout
	switch exp {
	case "table1":
		harness.Table1(w)
	case "table2", "table3", "fig7", "ablation", "over":
		records := runAll(ctx, opts)
		switch exp {
		case "table2":
			harness.Table2(w, records)
		case "table3":
			harness.Table3(w, records, opts.Timeout)
		case "fig7":
			harness.Figure7CSV(w, records)
		case "ablation":
			harness.Table2(w, records)
			fmt.Fprintln(w)
			harness.Table3(w, records, opts.Timeout)
		case "over":
			harness.OverTable(w, records)
		}
		reportCache(exp)
	case "fig2":
		points, err := harness.Figure2(ctx, opts, nil)
		if err != nil {
			fatal(err)
		}
		harness.Figure2Print(w, points)
		reportCache(exp)
	case "fig8":
		runFig8(w, opts)
	case "reduce":
		rows, err := harness.ReductionExperiment(opts, nil)
		if err != nil {
			fatal(err)
		}
		harness.ReductionPrint(w, rows)
	case "refine":
		rows, err := harness.RefinementExperiment(ctx, opts)
		if err != nil {
			fatal(err)
		}
		harness.RefinementPrint(w, rows)
		reportCache(exp)
	case "passes":
		rows, err := harness.PassesExperiment(ctx, opts)
		if err != nil {
			fatal(err)
		}
		harness.PassesPrint(w, rows)
		reportCache(exp)
	case "all":
		harness.Table1(w)
		fmt.Fprintln(w)
		points, err := harness.Figure2(ctx, opts, nil)
		if err != nil {
			fatal(err)
		}
		harness.Figure2Print(w, points)
		reportCache("fig2")
		fmt.Fprintln(w)
		records := runAll(ctx, opts)
		reportCache("tables")
		harness.Table2(w, records)
		fmt.Fprintln(w)
		harness.Table3(w, records, opts.Timeout)
		fmt.Fprintln(w)
		harness.OverTable(w, records)
		fmt.Fprintln(w)
		fmt.Fprintf(w, "Figure 7 portfolio invariant violations: %d\n", harness.Figure7Check(records))
		if mean, err := harness.MeanInferredWidth(opts); err == nil && mean > 0 {
			fmt.Fprintf(w, "Mean inferred bitvector width over integer corpora: %.1f (paper: 13.1)\n", mean)
		}
		fmt.Fprintln(w)
		runFig8(w, opts)
	default:
		fatal(fmt.Errorf("unknown experiment %q", exp))
	}
}

func runAll(ctx context.Context, opts harness.Options) map[string][]harness.Record {
	records, err := harness.Run(ctx, opts)
	if err != nil {
		fatal(err)
	}
	return records
}

func runFig8(w io.Writer, opts harness.Options) {
	res, err := termination.RunExperiment(termination.ExperimentOptions{
		Programs: 97,
		Seed:     opts.Seed,
		Timeout:  opts.Timeout,
	})
	if err != nil {
		fatal(err)
	}
	res.Print(w)
}

func scaledCounts(scale float64) map[string]int {
	base := map[string]int{"QF_NIA": 100, "QF_LIA": 60, "QF_NRA": 48, "QF_LRA": 24}
	out := map[string]int{}
	for k, v := range base {
		n := int(float64(v) * scale)
		if n < 4 {
			n = 4
		}
		out[k] = n
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "staub-bench:", err)
	os.Exit(1)
}
