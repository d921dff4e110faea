package bitblast_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"staub/internal/benchgen"
	"staub/internal/bitblast"
	"staub/internal/core"
	"staub/internal/harness"
	"staub/internal/sat"
	"staub/internal/smt"
	"staub/internal/solver"
	"staub/internal/translate"
)

var update = flag.Bool("update", false, "rewrite testdata/blast.golden from the current output")

// TestBlastGolden pins every bit-blast solve the Figure 3 chain and the
// over chain run on the benchmark's cold unit: for each instance whose
// translation reaches the SAT core, the outcome, sound status,
// bounded-solve work, the delta of every process-wide SAT counter
// (solver.SATMetricsSnapshot) and of the learning-time LBD histogram,
// and the verified model, under the benchmark's request settings
// (deterministic virtual time, 200 ms, the prima profile). The corpus is
// benchgen QF_NIA and QF_LIA at seed 1 (25 and 15 instances), the
// refinement corpus and testdata/*.smt2. Any change to the encoding,
// preprocessing or CDCL trajectory shows here.
func TestBlastGolden(t *testing.T) {
	base := core.Config{Timeout: 200 * time.Millisecond, Profile: solver.Prima, Deterministic: true}
	over := base
	over.OverApprox = true
	var b strings.Builder
	blastRuns := 0
	for _, inst := range blastCorpus(t) {
		for _, chain := range []struct {
			name string
			cfg  core.Config
		}{{"fig3", base}, {"over", over}} {
			sat0, lbd0 := solver.SATMetricsSnapshot(), lbdHist(t)
			res := core.RunPipeline(context.Background(), inst.c, chain.cfg, nil)
			if res.Bounded == nil {
				continue
			}
			if k := solver.ClassifyConstraint(res.Bounded); k != solver.KindBV && k != solver.KindBool {
				continue
			}
			blastRuns++
			sat1, lbd1 := solver.SATMetricsSnapshot(), lbdHist(t)
			keys := make([]string, 0, len(sat1))
			for k := range sat1 {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			var counters []string
			for _, k := range keys {
				counters = append(counters, fmt.Sprintf("%s=%d", k, sat1[k]-sat0[k]))
			}
			var hist []string
			for i := range lbd1 {
				hist = append(hist, strconv.FormatInt(lbd1[i]-lbd0[i], 10))
			}
			model := strings.ReplaceAll(strings.TrimSuffix(solver.FormatModel(inst.c, res.Model), "\n"), "\n", "; ")
			fmt.Fprintf(&b, "%s %s outcome=%s status=%s work=%d sat={%s} lbd=[%s] model={%s}\n",
				inst.name, chain.name, res.Outcome, res.Status, res.SolveWork,
				strings.Join(counters, " "), strings.Join(hist, " "), model)
		}
	}
	if blastRuns == 0 {
		t.Fatal("no corpus instance reached the SAT core")
	}
	got := b.String()
	path := filepath.Join("testdata", "blast.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("line %d differs:\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("got %d lines, want %d", len(gotLines), len(wantLines))
}

// TestOneGatePath pins one-shot and session encoding to one gate path.
// Over the golden corpus translated at three widths, a one-round Session
// must build exactly the gates a one-shot Blaster builds: the two solvers
// differ by the activation literal alone, and the session's gate misses
// are the one-shot cache's entries.
func TestOneGatePath(t *testing.T) {
	n := 0
	for _, inst := range blastCorpus(t) {
		for _, w := range []int{6, 12, 24} {
			tr, err := translate.IntToBV(inst.c, w)
			if err != nil {
				continue
			}
			one := sat.New()
			bl := bitblast.New(one)
			if err := bl.Encode(tr.Bounded); err != nil {
				t.Fatal(err)
			}
			ss := sat.New()
			sess := bitblast.NewSession(ss)
			if err := sess.Encode(tr.Bounded); err != nil {
				t.Fatal(err)
			}
			if ss.NumVars() != one.NumVars()+1 {
				t.Errorf("%s w%d: session has %d variables, one-shot %d; want one more (the activation literal)",
					inst.name, w, ss.NumVars(), one.NumVars())
			}
			if got, want := sess.Stats().GateMisses, int64(bl.GateCacheLen()); got != want {
				t.Errorf("%s w%d: session gate misses %d, one-shot cache holds %d gates", inst.name, w, got, want)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("no corpus instance translated to bitvectors")
	}
}

// lbdHist reads the process-wide learning-time LBD histogram back from
// its one-line rendering ("1:n 2:n ... 8+:n").
func lbdHist(t *testing.T) []int64 {
	t.Helper()
	var out []int64
	for _, f := range strings.Fields(solver.FormatLBDHist()) {
		_, n, ok := strings.Cut(f, ":")
		v, err := strconv.ParseInt(n, 10, 64)
		if !ok || err != nil {
			t.Fatalf("malformed LBD histogram field %q", f)
		}
		out = append(out, v)
	}
	return out
}

type namedConstraint struct {
	name string
	c    *smt.Constraint
}

func blastCorpus(t *testing.T) []namedConstraint {
	t.Helper()
	var out []namedConstraint
	for _, suite := range []struct {
		logic string
		n     int
	}{{"QF_NIA", 25}, {"QF_LIA", 15}} {
		insts, err := benchgen.Suite(suite.logic, suite.n, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, inst := range insts {
			out = append(out, namedConstraint{suite.logic + "/" + inst.Name, inst.Constraint})
		}
	}
	for _, r := range harness.RefinementCorpus() {
		c, err := smt.ParseScript(r.Src)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedConstraint{"refine/" + r.Name, c})
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.smt2"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		c, err := smt.ParseScript(string(src))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedConstraint{"testdata/" + filepath.Base(f), c})
	}
	return out
}
