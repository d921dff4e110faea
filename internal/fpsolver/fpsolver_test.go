package fpsolver

import (
	"math/big"
	"sync/atomic"
	"testing"
	"time"

	"staub/internal/eval"
	"staub/internal/fp"
	"staub/internal/smt"
	"staub/internal/status"
)

func fpConst(t *testing.T, c *smt.Constraint, sort smt.Sort, num, den int64) *smt.Term {
	t.Helper()
	v, _ := fp.FromRat(smt.FPFormat(sort), big.NewRat(num, den))
	r, _ := v.Rat()
	return c.Builder.FP(sort, v.Bits(), r)
}

func solve(t *testing.T, c *smt.Constraint) (status.Status, eval.Assignment) {
	t.Helper()
	st, m, _ := Solve(c, Params{Deadline: time.Now().Add(10 * time.Second)})
	if st == status.Sat {
		ok, err := eval.Constraint(c, m)
		if err != nil {
			t.Fatalf("eval: %v", err)
		}
		if !ok {
			t.Fatalf("model %v does not satisfy:\n%s", m, c.Script())
		}
	}
	return st, m
}

func smallSort() smt.Sort { return smt.FloatSort(4, 6) } // 10 bits: exhaustive

func TestSimpleEquality(t *testing.T) {
	sort := smallSort()
	c := smt.NewConstraint("QF_FP")
	b := c.Builder
	x := c.MustDeclare("x", sort)
	c.MustAssert(b.MustApply(smt.OpFPEq, x, fpConst(t, c, sort, 5, 2)))
	st, m := solve(t, c)
	if st != status.Sat {
		t.Fatalf("status = %v", st)
	}
	r, _ := m["x"].FP.Rat()
	if r.Cmp(big.NewRat(5, 2)) != 0 {
		t.Errorf("x = %v, want 5/2", r)
	}
}

func TestUnsatProvedExhaustively(t *testing.T) {
	sort := smallSort()
	c := smt.NewConstraint("QF_FP")
	b := c.Builder
	x := c.MustDeclare("x", sort)
	zero := fpConst(t, c, sort, 0, 1)
	c.MustAssert(b.MustApply(smt.OpFPLt, x, zero))
	c.MustAssert(b.MustApply(smt.OpFPGt, x, zero))
	st, _ := solve(t, c)
	if st != status.Unsat {
		t.Fatalf("status = %v, want unsat (exhaustive)", st)
	}
}

func TestArithmeticSearch(t *testing.T) {
	// x * x = 2.25 has the exact solution 1.5 in this format.
	sort := smallSort()
	c := smt.NewConstraint("QF_FP")
	b := c.Builder
	x := c.MustDeclare("x", sort)
	sq := b.MustApply(smt.OpFPMul, x, x)
	c.MustAssert(b.MustApply(smt.OpFPEq, sq, fpConst(t, c, sort, 9, 4)))
	c.MustAssert(b.MustApply(smt.OpFPGt, x, fpConst(t, c, sort, 0, 1)))
	st, m := solve(t, c)
	if st != status.Sat {
		t.Fatalf("status = %v", st)
	}
	r, _ := m["x"].FP.Rat()
	if r.Cmp(big.NewRat(3, 2)) != 0 {
		t.Errorf("x = %v, want 3/2", r)
	}
}

func TestTwoVariables(t *testing.T) {
	sort := smt.FloatSort(3, 4) // 6 bits each: exhaustive pair search
	c := smt.NewConstraint("QF_FP")
	b := c.Builder
	x := c.MustDeclare("x", sort)
	y := c.MustDeclare("y", sort)
	sum := b.MustApply(smt.OpFPAdd, x, y)
	c.MustAssert(b.MustApply(smt.OpFPEq, sum, fpConst(t, c, sort, 3, 1)))
	c.MustAssert(b.MustApply(smt.OpFPLt, x, y))
	st, m := solve(t, c)
	if st != status.Sat {
		t.Fatalf("status = %v", st)
	}
	if !fp.Lt(m["x"].FP, m["y"].FP) {
		t.Error("x < y violated")
	}
}

func TestNaNGuardsRespected(t *testing.T) {
	sort := smallSort()
	c := smt.NewConstraint("QF_FP")
	b := c.Builder
	x := c.MustDeclare("x", sort)
	// Only a NaN x satisfies (not (fp.leq x x)); with the guard it is unsat.
	c.MustAssert(b.Not(b.MustApply(smt.OpFPLe, x, x)))
	c.MustAssert(b.Not(b.MustApply(smt.OpFPIsNaN, x)))
	st, _ := solve(t, c)
	if st != status.Unsat {
		t.Fatalf("status = %v, want unsat", st)
	}
}

func TestLocalSearchLargeFormat(t *testing.T) {
	// Float32 is far beyond exhaustive range; local search must find an
	// easy target.
	sort := smt.Float32Sort
	c := smt.NewConstraint("QF_FP")
	b := c.Builder
	x := c.MustDeclare("x", sort)
	y := c.MustDeclare("y", sort)
	c.MustAssert(b.MustApply(smt.OpFPEq, x, fpConst(t, c, sort, 10, 1)))
	c.MustAssert(b.MustApply(smt.OpFPGt, y, x))
	st, m, stats := Solve(c, Params{Deadline: time.Now().Add(10 * time.Second), Seed: 7})
	if st != status.Sat {
		t.Fatalf("status = %v (nodes %d)", st, stats.Nodes)
	}
	if stats.Exhaustive {
		t.Error("Float32 pair should not be exhaustive")
	}
	ok, err := eval.Constraint(c, m)
	if err != nil || !ok {
		t.Fatalf("bad model: %v %v", m, err)
	}
}

func TestFloat64LocalSearchNoPanic(t *testing.T) {
	// Regression: random-pattern moves at 64-bit widths previously
	// overflowed the int64 shift and panicked.
	sort := smt.Float64Sort
	c := smt.NewConstraint("QF_FP")
	b := c.Builder
	x := c.MustDeclare("x", sort)
	y := c.MustDeclare("y", sort)
	c.MustAssert(b.MustApply(smt.OpFPGt, x, fpConst(t, c, sort, 1000, 1)))
	c.MustAssert(b.MustApply(smt.OpFPLt, y, x))
	st, m, _ := Solve(c, Params{Deadline: time.Now().Add(10 * time.Second), Seed: 3})
	if st == status.Sat {
		ok, err := eval.Constraint(c, m)
		if err != nil || !ok {
			t.Fatalf("bad model %v: %v", m, err)
		}
	}
}

// TestInterruptStopsWithinOneNode pins the cancellation latency: with
// the interrupt already raised, the exhaustive and the local-search path
// both give up after at most one node, where a 512-node poll window used
// to let them run on.
func TestInterruptStopsWithinOneNode(t *testing.T) {
	var stop atomic.Bool
	stop.Store(true)
	for _, tc := range []struct {
		name       string
		sort       smt.Sort
		exhaustive bool
	}{
		{"exhaustive", smallSort(), true},
		{"local-search", smt.Float32Sort, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := smt.NewConstraint("QF_FP")
			b := c.Builder
			x := c.MustDeclare("x", tc.sort)
			y := c.MustDeclare("y", tc.sort)
			c.MustAssert(b.MustApply(smt.OpFPGt, x, fpConst(t, c, tc.sort, 7, 1)))
			c.MustAssert(b.MustApply(smt.OpFPLt, y, x))
			st, _, stats := Solve(c, Params{Interrupt: &stop, Seed: 1})
			if st != status.Unknown || !stats.TimedOut || stats.Nodes > 1 || stats.Exhaustive != tc.exhaustive {
				t.Fatalf("interrupted Solve = %v %+v, want unknown, timed out, exhaustive=%t, at most 1 node",
					st, stats, tc.exhaustive)
			}
		})
	}
}

func TestCandidatesOrdering(t *testing.T) {
	sort := smt.FloatSort(3, 3)
	cands := Candidates(sort)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for _, v := range cands {
		if !v.IsFinite() {
			t.Fatal("non-finite candidate")
		}
	}
	// First candidate is +0 (smallest magnitude).
	if !cands[0].IsZero() {
		t.Errorf("first candidate = %v, want 0", cands[0])
	}
	if got := SortCandidateCount(sort); got != len(cands) {
		t.Errorf("SortCandidateCount = %d, want %d", got, len(cands))
	}
}
