// Benchmarks regenerating every table and figure of the paper's
// evaluation section, plus micro-benchmarks for the pipeline stages. Each
// table/figure benchmark runs the corresponding experiment at a reduced
// scale (the cmd/staub-bench tool runs them at full scale); the reported
// ns/op is the cost of regenerating the artifact once.
//
//	go test -bench=. -benchmem
package staub_test

import (
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"staub"
	"staub/internal/benchgen"
	"staub/internal/core"
	"staub/internal/harness"
	"staub/internal/smt"
	"staub/internal/solver"
	"staub/internal/termination"
)

// benchOptions returns a reduced-scale experiment configuration so each
// benchmark iteration stays in the tens of seconds.
func benchOptions() harness.Options {
	return harness.Options{
		Timeout: 300 * time.Millisecond,
		Seed:    42,
		Counts:  map[string]int{"QF_NIA": 16, "QF_LIA": 10, "QF_NRA": 8, "QF_LRA": 4},
	}
}

// BenchmarkTable1 regenerates the theoretical summary (Table 1).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.Table1(io.Discard)
	}
}

// BenchmarkTable2 regenerates the tractability-improvement counts
// (Table 2) on the reduced corpus.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		records, err := harness.Run(context.Background(), benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		harness.Table2(io.Discard, records)
	}
}

// BenchmarkTable3 regenerates the geometric-mean speedup table (Table 3),
// including the fixed-width ablation and over-approximation columns.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOptions()
		records, err := harness.Run(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
		harness.Table3(io.Discard, records, o.Timeout)
	}
}

// BenchmarkAblationWidth regenerates the width-inference ablation (the
// Fixed 8/16-bit columns of Tables 2 and 3) in isolation.
func BenchmarkAblationWidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOptions()
		o.Modes = []harness.Mode{harness.ModeStaub, harness.ModeFixed8, harness.ModeFixed16}
		o.Profiles = []solver.Profile{solver.Prima}
		records, err := harness.Run(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
		harness.Table2(io.Discard, records)
	}
}

// BenchmarkFigure2 regenerates the fixed-width sweep (Figures 2a and 2b).
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOptions()
		o.Counts = map[string]int{"QF_NIA": 8, "QF_LIA": 6, "QF_NRA": 4, "QF_LRA": 2}
		points, err := harness.Figure2(context.Background(), o, []int{8, 12, 16, 24, 32})
		if err != nil {
			b.Fatal(err)
		}
		harness.Figure2Print(io.Discard, points)
	}
}

// BenchmarkFigure7 regenerates the before/after scatter data (Figure 7)
// and checks the portfolio invariant (no point above the diagonal).
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOptions()
		o.Modes = []harness.Mode{harness.ModeStaub}
		records, err := harness.Run(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
		harness.Figure7CSV(io.Discard, records)
		if v := harness.Figure7Check(records); v != 0 {
			b.Fatalf("%d portfolio violations", v)
		}
	}
}

// BenchmarkFigure8 regenerates the termination-client experiment
// (Figure 8) on a reduced program corpus.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := termination.RunExperiment(termination.ExperimentOptions{
			Programs: 12,
			Seed:     42,
			Timeout:  300 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		res.Print(io.Discard)
	}
}

// BenchmarkOverhead measures T_trans (inference + translation) across
// constraint sizes, demonstrating the linear cost the paper's Section 6.1
// relies on.
func BenchmarkOverhead(b *testing.B) {
	sizes := []int{8, 32, 128}
	for _, n := range sizes {
		n := n
		b.Run(sizeName(n), func(b *testing.B) {
			c := syntheticChain(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := staub.Transform(c, staub.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sizeName(n int) string {
	switch n {
	case 8:
		return "nodes~50"
	case 32:
		return "nodes~200"
	default:
		return "nodes~800"
	}
}

// syntheticChain builds an integer constraint with n chained quadratic
// assertions.
func syntheticChain(n int) *staub.Constraint {
	c, _ := staub.ParseScript(`(declare-fun x0 () Int)(assert (> x0 0))(check-sat)`)
	b := c.Builder
	prev, _ := b.LookupVar("x0")
	for i := 1; i < n; i++ {
		v := c.MustDeclare(fmt.Sprintf("x%d", i), smt.IntSort)
		c.MustAssert(b.Le(b.Add(b.Mul(prev, prev), v), b.Int(1000)))
		prev = v
	}
	return c
}

// BenchmarkPipelineSumOfCubes runs the full pipeline on the paper's
// Figure 1 constraint.
func BenchmarkPipelineSumOfCubes(b *testing.B) {
	c, err := staub.ParseScript(cubes855)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res := staub.RunPipeline(c, staub.Config{Timeout: 30 * time.Second})
		if res.Outcome != core.OutcomeVerified {
			b.Fatalf("outcome %v", res.Outcome)
		}
	}
}

// BenchmarkTransformOnly isolates T_trans on the Figure 1 constraint.
func BenchmarkTransformOnly(b *testing.B) {
	c, err := staub.ParseScript(cubes855)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, _, err := staub.Transform(c, staub.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRefine solves the §6.2 refinement corpus end to end under
// deterministic virtual time, with the given refinement loop, and reports
// the total bounded-solve work units as a custom metric alongside ns/op
// and allocs/op.
func benchRefine(b *testing.B, fresh bool) {
	insts := harness.RefinementCorpus()
	parsed := make([]*staub.Constraint, len(insts))
	for i, inst := range insts {
		c, err := staub.ParseScript(inst.Src)
		if err != nil {
			b.Fatal(err)
		}
		parsed[i] = c
	}
	cfg := staub.Config{
		Timeout:       1500 * time.Millisecond,
		Deterministic: true,
		RefineRounds:  3,
		FreshRefine:   fresh,
	}
	b.ResetTimer()
	var work int64
	for i := 0; i < b.N; i++ {
		work = 0
		for _, c := range parsed {
			res := staub.RunPipeline(c, cfg)
			if res.Status == staub.Unsat {
				b.Fatal("pipeline must never report unsat")
			}
			work += res.SolveWork
		}
	}
	b.ReportMetric(float64(work), "work-units")
}

// BenchmarkRefineFresh measures the reference refinement loop that
// rebuilds the pipeline from scratch every width-doubling round.
func BenchmarkRefineFresh(b *testing.B) { benchRefine(b, true) }

// BenchmarkRefineIncremental measures the incremental refinement loop
// (persistent assumption-based session; see internal/bitblast.Session).
func BenchmarkRefineIncremental(b *testing.B) { benchRefine(b, false) }

// BenchmarkGenerateSuite measures benchmark-corpus generation.
func BenchmarkGenerateSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, logic := range benchgen.Logics() {
			if _, err := benchgen.Suite(logic, 25, int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	}
}
