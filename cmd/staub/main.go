// Command staub is the STAUB theory-arbitrage tool: it reads an SMT-LIB
// constraint over the unbounded theories of integers or reals, infers
// bounds by abstract interpretation, translates the constraint to the
// bounded theory of bitvectors or floating-point numbers, solves it, and
// verifies the model against the original (reverting on failure).
//
// With several input files, the constraints are solved as a batch across
// the parallel engine's worker pool; verdicts print in argument order.
// Ctrl-C cancels the solve cleanly in either mode.
//
// Incremental scripts — SMT-LIB command streams using push/pop, several
// check-sat commands, get-value, echo or reset — run through a stateful
// session: one verdict prints per check-sat, scope frames retract
// assertions, and solver state is reused across checks. A single `-`
// instead of a file name reads the script from stdin.
//
// Usage:
//
//	staub [flags] constraint.smt2 [more.smt2 ...]
//	staub [flags] -                  # read script from stdin
//
// Flags:
//
//	-emit            print the transformed bounded constraint and exit
//	-width N         use a fixed width instead of abstract interpretation
//	-start-width N   start §6.2 refinement at width N instead of inferring
//	-width-step N    multiply the width by N between refinement rounds
//	-timeout D       per-solve budget (default 10s)
//	-portfolio       race STAUB against the unmodified solver (two cores)
//	-over            over-approximate: linearize nonlinear multiplication
//	                 and certify a-priori bounds, so a bounded unsat is a
//	                 sound unsat (alone, or as an extra -portfolio leg)
//	-cube-vars N     cube-and-conquer: split the bounded solve over 2^N
//	                 assumption cubes raced on GOMAXPROCS workers
//	                 (0 = sequential solve)
//	-solver NAME     solver profile: prima (default) or secunda
//	-jobs N          batch solve workers (default 0 = GOMAXPROCS)
//	-stats           print inference, translation and cache statistics
//	-dimacs          print the CNF of the bit-blasted bounded constraint
//	-version         print the build string and exit
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"staub/internal/bitblast"
	"staub/internal/buildinfo"
	"staub/internal/core"
	"staub/internal/engine"
	"staub/internal/sat"
	"staub/internal/session"
	"staub/internal/smt"
	"staub/internal/solver"
	"staub/internal/status"
)

func main() {
	var (
		emit       = flag.Bool("emit", false, "print the transformed bounded constraint and exit")
		width      = flag.Int("width", 0, "fixed bit width (0 = infer via abstract interpretation)")
		startWidth = flag.Int("start-width", 0, "refinement start width (0 = infer via abstract interpretation)")
		widthStep  = flag.Int("width-step", 0, "width multiplier between refinement rounds (0 = default 2)")
		timeout    = flag.Duration("timeout", 10*time.Second, "per-solve budget")
		portfolio  = flag.Bool("portfolio", false, "race STAUB against the unmodified solver")
		over       = flag.Bool("over", false, "run the over-approximation pipeline (sound unsat via linearization and a-priori bounds)")
		cubeVars   = flag.Int("cube-vars", 0, "cube-and-conquer over 2^N assumption cubes (0 = sequential solve)")
		profile    = flag.String("solver", "prima", "solver profile: prima or secunda")
		jobs       = flag.Int("jobs", 0, "batch solve workers (0 = GOMAXPROCS)")
		stats      = flag.Bool("stats", false, "print inference, translation and cache statistics")
		dimacs     = flag.Bool("dimacs", false, "print the CNF of the bit-blasted bounded constraint and exit")
		version    = flag.Bool("version", false, "print the build string and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("staub"))
		return
	}
	prof, err := solver.ParseProfile(*profile)
	if err != nil || flag.NArg() < 1 {
		if err != nil {
			fmt.Fprintln(os.Stderr, "staub:", err)
		}
		fmt.Fprintln(os.Stderr, "usage: staub [flags] constraint.smt2 [more.smt2 ...]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cfg := core.Config{
		Timeout:    *timeout,
		FixedWidth: *width,
		StartWidth: *startWidth,
		WidthStep:  *widthStep,
		Profile:    prof,
		CubeVars:   *cubeVars,
		OverApprox: *over,
	}

	if flag.NArg() > 1 {
		if *emit || *dimacs {
			fatal(fmt.Errorf("-emit and -dimacs take a single input file"))
		}
		os.Exit(runBatch(ctx, flag.Args(), cfg, *portfolio, *jobs, *stats))
	}

	src := readInput(flag.Arg(0))

	// An incremental command stream (push/pop, several check-sats,
	// get-value, reset) runs through a stateful session, one verdict per
	// check-sat. The transform/debug modes and fixed-width solving keep
	// the flat end-of-script view.
	if !*emit && !*dimacs && !*portfolio && !*over && *width == 0 {
		sc, err := smt.ParseScriptCommands(src)
		if err != nil {
			fatal(err)
		}
		if sc.Incremental() {
			os.Exit(runIncremental(ctx, src, session.Config{
				Timeout:    *timeout,
				StartWidth: *startWidth,
				WidthStep:  *widthStep,
				Profile:    prof,
			}, *stats))
		}
	}

	c, err := smt.ParseScript(src)
	if err != nil {
		fatal(err)
	}

	if *dimacs {
		tr, _, err := core.Transform(c, cfg)
		if err != nil {
			fatal(err)
		}
		s := sat.New()
		bl := bitblast.New(s)
		if err := bl.Encode(tr.Bounded); err != nil {
			fatal(err)
		}
		if err := s.WriteDIMACS(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	if *emit {
		tr, root, err := core.Transform(c, cfg)
		if err != nil {
			fatal(err)
		}
		if *stats {
			fmt.Fprintf(os.Stderr, "; inference root = %d, %s\n", root, tr.Stats())
		}
		fmt.Print(tr.Bounded.Script())
		return
	}

	if *portfolio {
		res := core.RunPortfolio(ctx, c, cfg)
		fmt.Println(res.Status)
		if res.Status == status.Sat {
			fmt.Print(solver.FormatModel(c, res.Model))
		}
		if *stats {
			fmt.Fprintf(os.Stderr, "; elapsed=%v from-staub=%t from-over=%t pipeline: %v\n",
				res.Elapsed.Round(time.Microsecond), res.FromSTAUB, res.FromOver, res.Pipeline)
		}
		if res.Status == status.Unknown {
			os.Exit(1)
		}
		return
	}

	res := core.RunPipeline(ctx, c, cfg, nil)
	if *stats {
		fmt.Fprintf(os.Stderr, "; pipeline: %v\n", res)
	}
	switch {
	case res.Outcome == core.OutcomeVerified:
		fmt.Println("sat")
		fmt.Print(solver.FormatModel(c, res.Model))
	case res.Status == status.Unsat:
		// Only an exact or over-approximating chain (-over) ever reports
		// unsat; the direction lattice vetted its soundness.
		fmt.Println("unsat")
	default:
		// STAUB alone concludes nothing on revert; fall back to the
		// original solver within the remaining budget.
		fmt.Fprintf(os.Stderr, "; STAUB reverted (%v); solving original constraint\n", res.Outcome)
		orig := solver.SolveTimeout(ctx, c, *timeout, prof)
		fmt.Println(orig.Status)
		if orig.Status == status.Sat {
			fmt.Print(solver.FormatModel(c, orig.Model))
		}
		if orig.Status == status.Unknown {
			os.Exit(1)
		}
	}
}

// runBatch solves every input file through the engine's worker pool with
// the portfolio semantics per constraint, printing one verdict line per
// file in argument order. It returns the process exit code: 1 if any
// constraint stayed unknown.
func runBatch(ctx context.Context, files []string, cfg core.Config, usePortfolio bool, jobs int, stats bool) int {
	constraints := make([]*smt.Constraint, len(files))
	jobList := make([]engine.Job, len(files))
	for i, name := range files {
		constraints[i] = parseFile(name)
		if usePortfolio {
			jobList[i] = engine.Job{Kind: engine.KindPortfolio, Constraint: constraints[i], Config: cfg}
		} else {
			jobList[i] = engine.Job{Kind: engine.KindPipeline, Constraint: constraints[i], Config: cfg}
		}
	}
	cache := engine.NewCache()
	eng := engine.New(jobs, cache)
	results := eng.Run(ctx, jobList)

	exit := 0
	for i, res := range results {
		var st status.Status
		switch {
		case usePortfolio:
			st = res.Portfolio.Status
		case res.Pipeline.Outcome == core.OutcomeVerified:
			st = status.Sat
		case res.Pipeline.Status == status.Unsat:
			// Sound unsat from an exact/over chain (-over).
			st = status.Unsat
		default:
			st = status.Unknown // reverted; batch mode does not re-solve
		}
		fmt.Printf("%s: %s\n", files[i], st)
		if st == status.Unknown {
			exit = 1
		}
	}
	if stats {
		hits, misses := cache.Stats()
		fmt.Fprintf(os.Stderr, "; %d workers, cache %d hits / %d misses\n", eng.Workers(), hits, misses)
	}
	return exit
}

// runIncremental executes an incremental SMT-LIB script through one
// stateful session: verdicts print per check-sat, get-value and echo
// print their outputs in stream order. The exit code is 1 if any check
// stayed unknown.
func runIncremental(ctx context.Context, src string, scfg session.Config, stats bool) int {
	s := session.New(scfg)
	defer s.Close()
	outs, err := s.Exec(ctx, src)
	if err != nil {
		fatal(err)
	}
	exit := 0
	for _, o := range outs {
		fmt.Println(o.Text)
		if o.Kind == session.OutVerdict && o.Text == status.Unknown.String() {
			exit = 1
		}
	}
	if stats {
		st := s.Stats()
		fmt.Fprintf(os.Stderr, "; session: checks=%d work=%d memo-hits=%d model-reuses=%d rebuilds=%d fallbacks=%d\n",
			st.Checks, st.Work, st.MemoHits, st.ModelReuses, st.Rebuilds, st.Fallbacks)
	}
	return exit
}

// readInput reads one input argument: a file path, or `-` for stdin.
func readInput(name string) string {
	if name == "-" {
		src, err := io.ReadAll(os.Stdin)
		if err != nil {
			fatal(err)
		}
		return string(src)
	}
	src, err := os.ReadFile(name)
	if err != nil {
		fatal(err)
	}
	return string(src)
}

func parseFile(name string) *smt.Constraint {
	c, err := smt.ParseScript(readInput(name))
	if err != nil {
		fatal(err)
	}
	return c
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "staub:", err)
	os.Exit(1)
}
