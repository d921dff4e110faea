package fpsolver_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"staub/internal/benchgen"
	"staub/internal/core"
	"staub/internal/smt"
	"staub/internal/solver"
)

var update = flag.Bool("update", false, "rewrite testdata/chain.golden from the current output")

// TestChainGolden pins the Figure 3 chain's floating-point trajectories:
// for every instance whose translation the chain hands to the FP engine,
// the outcome, sound status, bounded-solve work and verified model under
// the benchmark's request settings (deterministic virtual time, 200 ms,
// the prima profile). The corpus is benchgen QF_NRA and QF_LRA at seeds
// 1–3 (24 and 12 instances per seed) plus testdata/real_band.smt2. Any
// change to FP arithmetic, candidate order or search cost shows here.
func TestChainGolden(t *testing.T) {
	cfg := core.Config{Timeout: 200 * time.Millisecond, Profile: solver.Prima, Deterministic: true}
	var b strings.Builder
	fpRuns := 0
	for _, inst := range chainCorpus(t) {
		res := core.RunPipeline(context.Background(), inst.c, cfg, nil)
		if res.Bounded == nil || solver.ClassifyConstraint(res.Bounded) != solver.KindFP {
			continue
		}
		fpRuns++
		model := strings.ReplaceAll(strings.TrimSuffix(solver.FormatModel(inst.c, res.Model), "\n"), "\n", "; ")
		fmt.Fprintf(&b, "%s outcome=%s status=%s sort=%s work=%d model={%s}\n",
			inst.name, res.Outcome, res.Status, res.FPSort, res.SolveWork, model)
	}
	if fpRuns == 0 {
		t.Fatal("no corpus instance reached the FP engine")
	}
	got := b.String()
	path := filepath.Join("testdata", "chain.golden")
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

type namedConstraint struct {
	name string
	c    *smt.Constraint
}

func chainCorpus(t *testing.T) []namedConstraint {
	t.Helper()
	var out []namedConstraint
	for _, suite := range []struct {
		logic string
		n     int
	}{{"QF_NRA", 24}, {"QF_LRA", 12}} {
		for seed := int64(1); seed <= 3; seed++ {
			insts, err := benchgen.Suite(suite.logic, suite.n, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, inst := range insts {
				out = append(out, namedConstraint{fmt.Sprintf("s%d/%s", seed, inst.Name), inst.Constraint})
			}
		}
	}
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "real_band.smt2"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := smt.ParseScript(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return append(out, namedConstraint{"testdata/real_band.smt2", c})
}
