package bitblast

import (
	"math/big"
	"math/rand"
	"sync/atomic"
	"testing"

	"staub/internal/eval"
	"staub/internal/sat"
	"staub/internal/smt"
	"staub/internal/translate"
)

// widthConstraint builds the same bitvector problem at a given width:
// x*x = 3249 with x > 50, which needs 13 bits for the square, so narrow
// widths with overflow guards are unsat and wide ones are sat (x = 57).
func widthConstraint(t *testing.T, width int) *smt.Constraint {
	t.Helper()
	src, err := smt.ParseScript(`
		(declare-fun x () Int)
		(assert (= (* x x) 3249))
		(assert (> x 50))
		(check-sat)`)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := translate.IntToBV(src, width)
	if err != nil {
		t.Fatal(err)
	}
	return tr.Bounded
}

// TestSessionEncodeIgnoresInterrupt: a session round never stops part
// way, since a half-encoded, activation-guarded round would survive into
// the next check. With the interrupt raised the round still encodes in
// full and only the search stops; once it clears, the same round decides.
func TestSessionEncodeIgnoresInterrupt(t *testing.T) {
	s := sat.New()
	var stop atomic.Bool
	stop.Store(true)
	s.SetInterrupt(&stop)
	sess := NewSession(s)
	c := widthConstraint(t, 24)
	if err := sess.Encode(c); err != nil {
		t.Fatalf("Encode under interrupt: %v", err)
	}
	if st := sess.Solve(); st != sat.Unknown {
		t.Fatalf("interrupted Solve = %v, want unknown", st)
	}
	stop.Store(false)
	if st := sess.Solve(); st != sat.Sat {
		t.Fatalf("Solve after the interrupt cleared = %v, want sat", st)
	}
	if got := sess.Model()["x"].BV.Int().Int64(); got != 57 {
		t.Errorf("x = %d, want 57", got)
	}
}

// TestSessionWidthRefinement drives a session through a doubling width
// schedule and checks every round's verdict equals a fresh one-shot
// solve of the same bounded constraint.
func TestSessionWidthRefinement(t *testing.T) {
	s := sat.New()
	sess := NewSession(s)
	for _, width := range []int{6, 12, 24} {
		c := widthConstraint(t, width)
		freshSt, _, err := Solve(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Encode(c); err != nil {
			t.Fatalf("width %d: Encode: %v", width, err)
		}
		st := sess.Solve()
		if st != freshSt {
			t.Fatalf("width %d: session = %v, fresh = %v", width, st, freshSt)
		}
		if st == sat.Sat {
			m := sess.Model()
			ok, err := eval.Constraint(c, m)
			if err != nil || !ok {
				t.Fatalf("width %d: session model %v does not satisfy bounded constraint (err=%v)", width, m, err)
			}
			if got := m["x"].BV.Int().Int64(); got != 57 {
				t.Errorf("width %d: x = %d, want 57", width, got)
			}
		}
	}
	stats := sess.Stats()
	if stats.Rounds != 3 {
		t.Errorf("Rounds = %d, want 3", stats.Rounds)
	}
	if stats.GateHits == 0 {
		t.Error("expected structural gate-cache hits across rounds, got none")
	}
	if stats.VarsReused == 0 {
		t.Error("expected low variable bits to be reused across rounds, got none")
	}
	if stats.ClausesRetained == 0 {
		t.Error("expected clauses retained across rounds, got none")
	}
}

// TestSessionMatchesFreshOnRandomConstraints cross-checks session
// verdicts against one-shot solving over random small constraints pushed
// through an arbitrary width schedule (including repeats and shrinks).
func TestSessionMatchesFreshOnRandomConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 40; iter++ {
		src := smt.NewConstraint("QF_NIA")
		b := src.Builder
		x := src.MustDeclare("x", smt.IntSort)
		y := src.MustDeclare("y", smt.IntSort)
		k := int64(rng.Intn(200) - 100)
		m := int64(rng.Intn(20) + 1)
		src.MustAssert(b.Eq(b.Add(b.Mul(x, b.Int(m)), y), b.Int(k)))
		if rng.Intn(2) == 0 {
			src.MustAssert(b.Gt(y, b.Int(int64(rng.Intn(50)))))
		} else {
			src.MustAssert(b.Lt(y, b.Int(int64(-rng.Intn(50)))))
		}

		s := sat.New()
		sess := NewSession(s)
		widths := []int{4 + rng.Intn(4), 8 + rng.Intn(8), 16 + rng.Intn(8)}
		if rng.Intn(3) == 0 {
			widths = append(widths, widths[1]) // revisit a narrower width
		}
		for _, w := range widths {
			tr, err := translate.IntToBV(src, w)
			if err != nil {
				t.Fatal(err)
			}
			fresh, _, err := Solve(tr.Bounded, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.Encode(tr.Bounded); err != nil {
				t.Fatal(err)
			}
			got := sess.Solve()
			if got != fresh {
				t.Fatalf("iter %d width %d: session = %v, fresh = %v\n%s",
					iter, w, got, fresh, tr.Bounded.Script())
			}
			if got == sat.Sat {
				ok, err := eval.Constraint(tr.Bounded, sess.Model())
				if err != nil || !ok {
					t.Fatalf("iter %d width %d: bad session model (err=%v)", iter, w, err)
				}
			}
		}
	}
}

// TestSessionSingleRoundMatchesOneShot checks a session with exactly one
// round behaves like the plain Solve path on sat and unsat inputs.
func TestSessionSingleRoundMatchesOneShot(t *testing.T) {
	c := smt.NewConstraint("QF_BV")
	b := c.Builder
	x := c.MustDeclare("x", smt.BitVecSort(8))
	c.MustAssert(b.Eq(b.MustApply(smt.OpBVMul, x, b.BV(big.NewInt(3), 8)), b.BV(big.NewInt(33), 8)))

	sess := NewSession(sat.New())
	if err := sess.Encode(c); err != nil {
		t.Fatal(err)
	}
	if st := sess.Solve(); st != sat.Sat {
		t.Fatalf("session = %v, want sat", st)
	}
	ok, err := eval.Constraint(c, sess.Model())
	if err != nil || !ok {
		t.Fatalf("bad model (err=%v)", err)
	}

	u := smt.NewConstraint("QF_BV")
	ub := u.Builder
	ux := u.MustDeclare("x", smt.BitVecSort(6))
	zero := ub.BV(new(big.Int), 6)
	u.MustAssert(ub.MustApply(smt.OpBVSLt, ux, zero))
	u.MustAssert(ub.MustApply(smt.OpBVSGt, ux, zero))
	usess := NewSession(sat.New())
	if err := usess.Encode(u); err != nil {
		t.Fatal(err)
	}
	if st := usess.Solve(); st != sat.Unsat {
		t.Fatalf("session = %v, want unsat", st)
	}
}
