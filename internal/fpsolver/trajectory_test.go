package fpsolver_test

import (
	"math/big"
	"testing"
	"time"

	"staub/internal/benchgen"
	"staub/internal/core"
	"staub/internal/fp"
	"staub/internal/fpsolver"
	"staub/internal/smt"
	"staub/internal/solver"
)

// TestLazyCandidatesMatchEager pins the lazy enumeration to its oracle:
// exactly Candidates(sort) filtered by the unit bound, in the same order,
// for several sorts and bound shapes (open, half-open, closed, a point,
// and empty).
func TestLazyCandidatesMatchEager(t *testing.T) {
	q := big.NewRat
	bounds := [][2]*big.Rat{
		{nil, nil},
		{q(0, 1), nil},
		{nil, q(-1, 2)},
		{q(-3, 2), q(5, 4)},
		{q(1, 1), q(1, 1)},
		{q(2, 1), q(1, 1)},
	}
	for _, sort := range []smt.Sort{smt.FloatSort(3, 3), smt.FloatSort(3, 4), smt.FloatSort(4, 6), smt.FloatSort(5, 5)} {
		all := fpsolver.Candidates(sort)
		for _, b := range bounds {
			var want []fp.Value
			for _, v := range all {
				r, _ := v.Rat()
				if b[0] != nil && r.Cmp(b[0]) < 0 || b[1] != nil && r.Cmp(b[1]) > 0 {
					continue
				}
				want = append(want, v)
			}
			got := fpsolver.LazyCandidates(sort, b[0], b[1])
			if len(got) != len(want) {
				t.Fatalf("%v %v: %d lazy candidates, want %d", sort, b, len(got), len(want))
			}
			for i := range want {
				if got[i].Bits().Cmp(want[i].Bits()) != 0 {
					t.Fatalf("%v %v: candidate %d = %v, want %v", sort, b, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSolveMatchesEagerOnBenchgen runs Solve and the eager reference on
// the floating-point constraints STAUB translates benchgen QF_NRA and
// QF_LRA instances to, under a node budget: status, model and node count
// must be byte-identical, so the lazy enumeration moves no trajectory.
func TestSolveMatchesEagerOnBenchgen(t *testing.T) {
	checked := 0
	for _, logic := range []string{"QF_NRA", "QF_LRA"} {
		insts, err := benchgen.Suite(logic, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, inst := range insts {
			tr, _, err := core.Transform(inst.Constraint, core.Config{Timeout: 10 * time.Second})
			if err != nil || solver.ClassifyConstraint(tr.Bounded) != solver.KindFP {
				continue
			}
			p := fpsolver.Params{NodeBudget: 256, Seed: 1}
			st, m, stats := fpsolver.Solve(tr.Bounded, p)
			est, em, estats := fpsolver.SolveEager(tr.Bounded, p)
			got, want := solver.FormatModel(tr.Bounded, m), solver.FormatModel(tr.Bounded, em)
			if st != est || stats != estats || got != want {
				t.Errorf("%s: lazy %v %+v %q, eager %v %+v %q", inst.Name, st, stats, got, est, estats, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no benchgen instance translated to floating point")
	}
}
