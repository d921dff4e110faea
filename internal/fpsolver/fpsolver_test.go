package fpsolver_test

import (
	"math/big"
	"sync/atomic"
	"testing"
	"time"

	"staub/internal/eval"
	"staub/internal/fp"
	"staub/internal/fpsolver"
	"staub/internal/smt"
	"staub/internal/solver"
	"staub/internal/status"
)

func fpConst(t *testing.T, c *smt.Constraint, sort smt.Sort, num, den int64) *smt.Term {
	t.Helper()
	v, _ := fp.FromRat(smt.FPFormat(sort), big.NewRat(num, den))
	r, _ := v.Rat()
	return c.Builder.FP(sort, v.Bits(), r)
}

// solve decides c the way the Figure 3 chain does, through solver.Solve's
// floating-point path: the local search on half the budget, then CDCL.
func solve(t *testing.T, c *smt.Constraint) (status.Status, eval.Assignment) {
	t.Helper()
	r := solver.Solve(c, solver.Options{Deadline: time.Now().Add(10 * time.Second)})
	if r.Status == status.Sat {
		ok, err := eval.Constraint(c, r.Model)
		if err != nil {
			t.Fatalf("eval: %v", err)
		}
		if !ok {
			t.Fatalf("model %v does not satisfy:\n%s", r.Model, c.Script())
		}
	}
	return r.Status, r.Model
}

func smallSort() smt.Sort { return smt.FloatSort(4, 6) }

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
		t.Fatalf("status = %v, want unsat (CDCL)", st)
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
	sort := smt.FloatSort(3, 4)
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
	// The local search alone must find an easy Float32 target.
	sort := smt.Float32Sort
	c := smt.NewConstraint("QF_FP")
	b := c.Builder
	x := c.MustDeclare("x", sort)
	y := c.MustDeclare("y", sort)
	c.MustAssert(b.MustApply(smt.OpFPEq, x, fpConst(t, c, sort, 10, 1)))
	c.MustAssert(b.MustApply(smt.OpFPGt, y, x))
	st, m, stats := fpsolver.Solve(c, fpsolver.Params{Deadline: time.Now().Add(10 * time.Second), Seed: 7})
	if st != status.Sat {
		t.Fatalf("status = %v (nodes %d)", st, stats.Nodes)
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
	st, m, _ := fpsolver.Solve(c, fpsolver.Params{Deadline: time.Now().Add(10 * time.Second), Seed: 3})
	if st == status.Sat {
		ok, err := eval.Constraint(c, m)
		if err != nil || !ok {
			t.Fatalf("bad model %v: %v", m, err)
		}
	}
}

// TestInterruptStopsWithinOneNode pins the cancellation latency: with
// the interrupt already raised, the local search gives up after at most
// one node, where a 512-node poll window used to let it run on, and
// solver.Solve's floating-point path stops there too, without starting
// its CDCL stage.
func TestInterruptStopsWithinOneNode(t *testing.T) {
	instance := func(sort smt.Sort) *smt.Constraint {
		c := smt.NewConstraint("QF_FP")
		b := c.Builder
		x := c.MustDeclare("x", sort)
		y := c.MustDeclare("y", sort)
		c.MustAssert(b.MustApply(smt.OpFPGt, x, fpConst(t, c, sort, 7, 1)))
		c.MustAssert(b.MustApply(smt.OpFPLt, y, x))
		return c
	}
	var stop atomic.Bool
	stop.Store(true)
	t.Run("both-stages", func(t *testing.T) {
		r := solver.Solve(instance(smallSort()), solver.Options{Interrupt: &stop, Seed: 1})
		if r.Status != status.Unknown || !r.TimedOut || r.Work > 40 || r.Engine != "fpsearch" {
			t.Fatalf("interrupted Solve = %v, timed out %t, work %d, engine %s; want unknown, timed out, at most one node's 40 units, fpsearch",
				r.Status, r.TimedOut, r.Work, r.Engine)
		}
	})
	t.Run("local-search", func(t *testing.T) {
		st, _, stats := fpsolver.Solve(instance(smt.Float32Sort), fpsolver.Params{Interrupt: &stop, Seed: 1})
		if st != status.Unknown || !stats.TimedOut || stats.Nodes > 1 {
			t.Fatalf("interrupted Solve = %v %+v, want unknown, timed out, at most 1 node", st, stats)
		}
	})
}
