package intsolver_test

import (
	"testing"

	"staub/internal/benchgen"
	"staub/internal/eval"
	"staub/internal/harness"
	"staub/internal/intsolver"
	"staub/internal/smt"
	"staub/internal/solver"
	"staub/internal/status"
)

// kernelBudget is the node budget of the differential runs: the 40k work
// units a deterministic 200 ms solve gets.
const kernelBudget = 40_000

// matchReference solves c with Solve and with the big.Rat reference and
// fails unless status, model and Stats are identical and a sat model
// satisfies c. Node counts and the first model found pin the kernel's
// split point, tie rule and the order it visits halves and points in.
func matchReference(t *testing.T, name string, c *smt.Constraint) (status.Status, intsolver.Stats) {
	t.Helper()
	p := intsolver.Params{NodeBudget: kernelBudget}
	st, m, stats := intsolver.Solve(c, p)
	rst, rm, rstats := intsolver.SolveReference(c, p)
	got, want := solver.FormatModel(c, m), solver.FormatModel(c, rm)
	if st != rst || stats != rstats || got != want {
		t.Errorf("%s: kernel %v %+v %q, reference %v %+v %q", name, st, stats, got, rst, rstats, want)
	}
	if st == status.Sat {
		if ok, err := eval.Constraint(c, m); err != nil || !ok {
			t.Errorf("%s: model %q does not satisfy the constraint (err %v)", name, got, err)
		}
	}
	return st, stats
}

// TestKernelMatchesReference pins the int64 kernel to the big.Rat
// branchPrune on benchgen QF_NIA (seeds 1–3) and the refinement corpus.
// With -short it runs the first 25 QF_NIA instances of seed 1 and the
// refinement corpus, sized for the race detector.
func TestKernelMatchesReference(t *testing.T) {
	seeds, n := []int64{1, 2, 3}, 60
	if testing.Short() {
		seeds, n = []int64{1}, 25
	}
	type named struct {
		name string
		c    *smt.Constraint
	}
	var corpus []named
	for _, seed := range seeds {
		insts, err := benchgen.Suite("QF_NIA", n, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, inst := range insts {
			corpus = append(corpus, named{inst.Name, inst.Constraint})
		}
	}
	for _, ri := range harness.RefinementCorpus() {
		c, err := smt.ParseScript(ri.Src)
		if err != nil {
			t.Fatalf("%s: %v", ri.Name, err)
		}
		corpus = append(corpus, named{ri.Name, c})
	}
	var nodes int64
	for _, nc := range corpus {
		_, stats := matchReference(t, nc.name, nc.c)
		nodes += stats.Nodes
	}
	t.Logf("%d constraints, %d search nodes", len(corpus), nodes)
}

// TestKernelFallbacksMatchReference drives each exact fallback: a point
// evaluation that overflows int64, boxes at and beyond ±2^61, and a
// coefficient outside int64. Every case must match the reference and
// reach its known verdict.
func TestKernelFallbacksMatchReference(t *testing.T) {
	const (
		two61 = "2305843009213693952"
		two62 = "4611686018427387904"
	)
	decl := "(declare-fun x () Int) (declare-fun y () Int) "
	for _, tc := range []struct {
		name  string
		src   string
		point map[string]int64
		want  status.Status
		// The kernel's view of the case: its atoms compile, it takes the
		// root box, and evaluation at point overflows.
		compiles, rootFits, overflows bool
	}{
		{
			name:  "coefficient 2^62, deepening",
			src:   "(assert (= (* " + two62 + " x y) " + two62 + "))",
			point: map[string]int64{"x": -2, "y": -2},
			want:  status.Sat, compiles: true, overflows: true,
		},
		{
			name:  "coefficient 2^62, every point overflows until the budget",
			src:   "(assert (= (* " + two62 + " x y) " + two62 + ")) (assert (> x 1))",
			point: map[string]int64{"x": 2, "y": 0},
			want:  status.Unknown, compiles: true, overflows: true,
		},
		{
			name: "box at 2^61, x*x overflows",
			src: "(assert (>= x (- " + two61 + " 2))) (assert (<= x " + two61 + ")) " +
				"(assert (>= y (- 1))) (assert (<= y 1)) (assert (= (* x x y) 0))",
			point: map[string]int64{"x": 1 << 61, "y": 0},
			want:  status.Sat, compiles: true, rootFits: true, overflows: true,
		},
		{
			name: "box beyond 2^61, sat",
			src: "(assert (>= x " + two62 + ")) (assert (<= x (+ " + two62 + " 5))) " +
				"(assert (>= y (- 3))) (assert (<= y 3)) (assert (= (* x y) (* 2 x)))",
			want: status.Sat, compiles: true,
		},
		{
			name: "box beyond -2^61, unsat",
			src: "(assert (<= x (- " + two62 + "))) (assert (>= x (- (- " + two62 + ") 5))) " +
				"(assert (>= y (- 3))) (assert (<= y 3)) (assert (= (* x y) 1))",
			want: status.Unsat, compiles: true,
		},
		{
			name: "coefficient beyond int64",
			src:  "(assert (= (* 10000000000000000000 x y) 10000000000000000000))",
			want: status.Sat,
		},
	} {
		c, err := smt.ParseScript(decl + tc.src + " (check-sat)")
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		compiles, rootFits, overflows := intsolver.KernelPaths(c, tc.point)
		if compiles != tc.compiles || rootFits != tc.rootFits || overflows != tc.overflows {
			t.Errorf("%s: kernel compiles=%t rootFits=%t overflows=%t, want %t %t %t",
				tc.name, compiles, rootFits, overflows, tc.compiles, tc.rootFits, tc.overflows)
		}
		if st, _ := matchReference(t, tc.name, c); st != tc.want {
			t.Errorf("%s: status %v, want %v", tc.name, st, tc.want)
		}
	}
}
