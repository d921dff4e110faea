// Command cubebench measures what cube-and-conquer buys over the
// sequential bounded solve. Run from the repository root as
// `go run ./scripts/cubebench`, it writes BENCH_8.json comparing, per
// corpus row, the sequential solver's deterministic work against the
// cube race's virtual makespan at 8 workers — the cost the deterministic
// driver charges as wall time.
//
// Both legs solve the identical bounded constraint under the identical
// work budget; the sequential leg is the exact code path the bounded
// solve pass runs (encode, preprocess, solve), the cube leg is
// cube.Solve with the default splitting and sharing knobs. The headline
// geomean covers the solver-bound rows — those where the sequential leg
// reaches its first clause-DB reduction or exhausts the budget; lighter
// rows are dominated by encoding setup, so they are reported and
// parity-checked but excluded, and the log says so.
//
// Parity rules: decided-vs-decided disagreement fails the benchmark, as
// does the cube leg capping out where the sequential leg decided; the
// cube leg deciding where the sequential leg capped out is the
// tractability gain cubing exists for (the row's speedup is then a lower
// bound, since the sequential cost is only "at least the budget"). One
// solver-bound row is re-raced at 1 and 2 workers and must reproduce the
// 8-worker verdict, model-deciding cube and work exactly — the worker
// count may only move the makespan.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"

	"staub/internal/bitblast"
	"staub/internal/cube"
	"staub/internal/harness"
	"staub/internal/sat"
	"staub/internal/smt"
	"staub/internal/solver"
	"staub/internal/translate"
)

// workBudget is the deterministic per-solve budget in work units
// (1M units = 40M propagations).
const workBudget = 1_000_000

// reduceFirst mirrors the solver's first clause-DB reduction point; a
// sequential run that reaches it spent its time searching.
const reduceFirst = 2000

// cubeVars is the benchmarked split: 2^3 = 8 cubes, one per worker.
const cubeVars = 3

// corpusRows lists the benchmarked (instance, width) pairs — the int→BV
// slice of the refinement corpus BENCH_6.json measured the CDCL core on,
// so the two reports speak about the same search problems.
var corpusRows = []struct {
	Name  string
	Width int
}{
	{"square-diff-201", 16},
	{"square-diff-201", 20},
	{"square-diff-201", 32},
	{"legendre-2023", 16},
	{"legendre-2023", 32},
	{"two-square-mod4", 32},
	{"unsat-square-7", 32},
	{"cubes-855", 12},
	{"cubes-855", 16},
	{"cubes-855", 20},
}

type instanceRow struct {
	Name  string `json:"name"`
	Width int    `json:"width"`
	// SeqVerdict and CubeVerdict are each leg's result; "unknown" means
	// the leg exhausted the work budget.
	SeqVerdict  string `json:"seq_verdict"`
	CubeVerdict string `json:"cube_verdict"`
	// SeqWork is the sequential solve's deterministic cost in work units;
	// CubeMakespan is the race's virtual critical path at 8 workers —
	// what the deterministic pipeline charges as solve time. CubeWork is
	// the race's total effort across the probe and every leg.
	SeqWork      int64 `json:"seq_work"`
	CubeMakespan int64 `json:"cube_makespan"`
	CubeWork     int64 `json:"cube_work"`
	// Speedup is SeqWork / CubeMakespan, with both costs clamped at the
	// work budget first — exactly what the deterministic pipeline
	// charges: a leg that caps out costs the budget, never more.
	Speedup float64 `json:"speedup"`
	// Cubes, Shared and Imported describe the race: cubes raced and
	// clauses exchanged between legs.
	Cubes    int   `json:"cubes"`
	Shared   int64 `json:"shared_clauses"`
	Imported int64 `json:"imported_clauses"`
	// SolverBound marks rows counted in the headline geomean.
	SolverBound bool `json:"solver_bound"`
}

type report struct {
	Benchmark string        `json:"benchmark"`
	Workers   int           `json:"workers"`
	CubeVars  int           `json:"cube_vars"`
	Instances []instanceRow `json:"instances"`
	// GeomeanSpeedup is the geometric mean of per-row speedups over the
	// solver-bound rows; SolverBoundRows counts them.
	GeomeanSpeedup  float64 `json:"geomean_speedup"`
	SolverBoundRows int     `json:"solver_bound_rows"`
	VerdictParity   bool    `json:"verdict_parity"`
	// JobsInvariant reports the 1/2/8-worker re-race reproducing verdict
	// and work exactly.
	JobsInvariant bool `json:"jobs_invariant"`
}

// boundedAt translates inst to bitvectors at the given width.
func boundedAt(c *smt.Constraint, width int) (*smt.Constraint, error) {
	tr, err := translate.IntToBV(c, width)
	if err != nil {
		return nil, err
	}
	return tr.Bounded, nil
}

// seqSolve is the sequential leg: the exact encode/preprocess/solve path
// the bounded-solve pass runs, under the deterministic budget. It
// returns the verdict, the cost in work units, and the conflict and
// propagation counts the solver-bound split reads.
func seqSolve(c *smt.Constraint) (sat.Status, int64, sat.Stats) {
	s := sat.New()
	bl := bitblast.New(s)
	if err := bl.Encode(c); err != nil {
		return sat.Unknown, 1, s.Stats
	}
	s.Preprocess()
	s.PropagationCap = workBudget * solver.SATWorkScale
	st := s.Solve()
	work := s.Stats.Propagations / solver.SATWorkScale
	if work < 1 {
		work = 1
	}
	return st, work, s.Stats
}

func cubeSolve(c *smt.Constraint, jobs int) cube.Result {
	return cube.Solve(c, cube.Options{
		Vars:          cubeVars,
		Jobs:          jobs,
		WorkBudget:    workBudget,
		Deterministic: true,
	})
}

func main() {
	out := flag.String("out", "BENCH_8.json", "output file")
	flag.Parse()

	rep := report{
		Benchmark:     "cube-and-conquer",
		Workers:       8,
		CubeVars:      cubeVars,
		VerdictParity: true,
		JobsInvariant: true,
	}
	byName := map[string]*smt.Constraint{}
	for _, inst := range harness.RefinementCorpus() {
		c, err := smt.ParseScript(inst.Src)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", inst.Name, err))
		}
		byName[inst.Name] = c
	}

	invarianceChecked := false
	for _, cr := range corpusRows {
		c := byName[cr.Name]
		if c == nil {
			fatal(fmt.Errorf("corpus row %s: no such refinement instance", cr.Name))
		}
		bounded, err := boundedAt(c, cr.Width)
		if err != nil {
			fatal(fmt.Errorf("%s w=%d: %w", cr.Name, cr.Width, err))
		}
		sst, swork, sstats := seqSolve(bounded)
		cres := cubeSolve(bounded, 8)

		row := instanceRow{
			Name:         cr.Name,
			Width:        cr.Width,
			SeqVerdict:   sst.String(),
			CubeVerdict:  cres.Status.String(),
			SeqWork:      swork,
			CubeMakespan: cres.Makespan,
			CubeWork:     cres.Work,
			Cubes:        cres.Cubes,
			Shared:       cres.Shared,
			Imported:     cres.Imported,
			SolverBound: sstats.Conflicts >= reduceFirst ||
				sstats.Propagations >= workBudget*solver.SATWorkScale,
		}
		if row.CubeMakespan > 0 {
			row.Speedup = round2(float64(clamp(row.SeqWork)) / float64(clamp(row.CubeMakespan)))
		}
		rep.Instances = append(rep.Instances, row)

		if row.SeqVerdict != row.CubeVerdict {
			switch {
			case sst != sat.Unknown && cres.Status.String() != "unknown":
				rep.VerdictParity = false
				fmt.Fprintf(os.Stderr, "cubebench: VERDICT MISMATCH %s w=%d: sequential %v, cube %v\n",
					cr.Name, cr.Width, sst, cres.Status)
			case cres.Status.String() == "unknown":
				rep.VerdictParity = false
				fmt.Fprintf(os.Stderr, "cubebench: REGRESSION %s w=%d: cube capped out, sequential decided %v\n",
					cr.Name, cr.Width, sst)
			default:
				fmt.Fprintf(os.Stderr, "cubebench: %s w=%d: cube strengthened a sequential cap-out to %v (speedup is a lower bound)\n",
					cr.Name, cr.Width, cres.Status)
			}
		}

		// The worker count may only move the makespan: re-race the first
		// solver-bound row at 1 and 2 workers and demand identical verdict,
		// work and cube count.
		if row.SolverBound && !invarianceChecked {
			invarianceChecked = true
			for _, jobs := range []int{1, 2} {
				alt := cubeSolve(bounded, jobs)
				if alt.Status != cres.Status || alt.Work != cres.Work || alt.Cubes != cres.Cubes {
					rep.JobsInvariant = false
					fmt.Fprintf(os.Stderr, "cubebench: JOBS DRIFT %s w=%d at %d workers: %v/%d/%d vs %v/%d/%d\n",
						cr.Name, cr.Width, jobs, alt.Status, alt.Work, alt.Cubes,
						cres.Status, cres.Work, cres.Cubes)
				}
			}
		}
	}

	var logSum float64
	light := 0
	for _, row := range rep.Instances {
		if !row.SolverBound {
			light++
			continue
		}
		if row.Speedup > 0 {
			logSum += math.Log(row.Speedup)
			rep.SolverBoundRows++
		}
	}
	if rep.SolverBoundRows > 0 {
		rep.GeomeanSpeedup = round2(math.Exp(logSum / float64(rep.SolverBoundRows)))
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("cubebench: %s: geomean speedup %.2fx over %d solver-bound rows (%d light rows excluded) at %d workers, verdict parity %t, jobs invariant %t\n",
		*out, rep.GeomeanSpeedup, rep.SolverBoundRows, light, rep.Workers, rep.VerdictParity, rep.JobsInvariant)
	if rep.GeomeanSpeedup < 1.4 {
		fatal(fmt.Errorf("geomean speedup %.2fx below the 1.4x gate", rep.GeomeanSpeedup))
	}
	if !rep.VerdictParity {
		fatal(fmt.Errorf("verdict parity violated"))
	}
	if !rep.JobsInvariant {
		fatal(fmt.Errorf("worker-count invariance violated"))
	}
}

// clamp caps a cost at the work budget, mirroring the pipeline's
// charging rule for capped-out solves.
func clamp(w int64) int64 {
	if w > workBudget {
		return workBudget
	}
	return w
}

func round2(v float64) float64 { return float64(int64(v*100+0.5)) / 100 }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cubebench:", err)
	os.Exit(1)
}
