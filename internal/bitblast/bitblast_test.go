package bitblast

import (
	"fmt"
	"math/big"
	"math/rand"
	"sync/atomic"
	"testing"

	"staub/internal/bv"
	"staub/internal/eval"
	"staub/internal/sat"
	"staub/internal/smt"
)

// solveConstraint bit-blasts and solves c, returning the status and model.
func solveConstraint(t *testing.T, c *smt.Constraint) (sat.Status, eval.Assignment) {
	t.Helper()
	st, model, err := Solve(c, nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return st, model
}

// checkModel verifies a sat model against the exact evaluator.
func checkModel(t *testing.T, c *smt.Constraint, m eval.Assignment) {
	t.Helper()
	ok, err := eval.Constraint(c, m)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	if !ok {
		t.Fatalf("model %v does not satisfy constraint:\n%s", m, c.Script())
	}
}

func TestSimpleEquation(t *testing.T) {
	// x + 3 = 10 over 8-bit vectors.
	c := smt.NewConstraint("QF_BV")
	b := c.Builder
	x := c.MustDeclare("x", smt.BitVecSort(8))
	c.MustAssert(b.Eq(b.MustApply(smt.OpBVAdd, x, b.BV(big.NewInt(3), 8)), b.BV(big.NewInt(10), 8)))
	st, m := solveConstraint(t, c)
	if st != sat.Sat {
		t.Fatalf("status = %v, want sat", st)
	}
	if got := m["x"].BV.Uint().Int64(); got != 7 {
		t.Errorf("x = %d, want 7", got)
	}
}

func TestUnsatEquation(t *testing.T) {
	// x < 0 && x > 0 signed is unsat.
	c := smt.NewConstraint("QF_BV")
	b := c.Builder
	x := c.MustDeclare("x", smt.BitVecSort(6))
	zero := b.BV(new(big.Int), 6)
	c.MustAssert(b.MustApply(smt.OpBVSLt, x, zero))
	c.MustAssert(b.MustApply(smt.OpBVSGt, x, zero))
	st, _ := solveConstraint(t, c)
	if st != sat.Unsat {
		t.Fatalf("status = %v, want unsat", st)
	}
}

// TestSolveInterrupted pins the one-shot path's cancellation contract: a
// raised interrupt stops encoding before the first assertion, and the
// answer is Unknown with no error (a cancelled solve, not an encoding
// failure) and no search decision made.
func TestSolveInterrupted(t *testing.T) {
	c := smt.NewConstraint("QF_BV")
	b := c.Builder
	x := c.MustDeclare("x", smt.BitVecSort(8))
	c.MustAssert(b.Eq(b.MustApply(smt.OpBVMul, x, x), b.BV(big.NewInt(49), 8)))
	var stop atomic.Bool
	stop.Store(true)
	var s *sat.Solver
	st, m, err := Solve(c, func(ss *sat.Solver) {
		s = ss
		ss.SetInterrupt(&stop)
	})
	if st != sat.Unknown || m != nil || err != nil {
		t.Fatalf("interrupted Solve = %v, %v, %v; want unknown, no model, no error", st, m, err)
	}
	if s.Stats.Decisions != 0 {
		t.Fatalf("interrupted Solve made %d decisions, want 0", s.Stats.Decisions)
	}
}

func TestSumOfCubes(t *testing.T) {
	// The paper's Figure 1b: x^3 + y^3 + z^3 = 855 at width 12 with
	// overflow guards. Known solution: 7^3 + 8^3 + 0^3 = 343+512.
	c := smt.NewConstraint("QF_BV")
	b := c.Builder
	w := 12
	vars := make([]*smt.Term, 3)
	for i, n := range []string{"x", "y", "z"} {
		vars[i] = c.MustDeclare(n, smt.BitVecSort(w))
	}
	cubes := make([]*smt.Term, 3)
	for i, v := range vars {
		c.MustAssert(b.Not(b.MustApply(smt.OpBVSMulO, v, v)))
		sq := b.MustApply(smt.OpBVMul, v, v)
		c.MustAssert(b.Not(b.MustApply(smt.OpBVSMulO, sq, v)))
		cubes[i] = b.MustApply(smt.OpBVMul, sq, v)
	}
	sum01 := b.MustApply(smt.OpBVAdd, cubes[0], cubes[1])
	c.MustAssert(b.Not(b.MustApply(smt.OpBVSAddO, cubes[0], cubes[1])))
	c.MustAssert(b.Not(b.MustApply(smt.OpBVSAddO, sum01, cubes[2])))
	total := b.MustApply(smt.OpBVAdd, sum01, cubes[2])
	c.MustAssert(b.Eq(total, b.BV(big.NewInt(855), w)))

	st, m := solveConstraint(t, c)
	if st != sat.Sat {
		t.Fatalf("status = %v, want sat", st)
	}
	checkModel(t, c, m)
	// Confirm the cubes really sum to 855 over the integers.
	sum := new(big.Int)
	for _, n := range []string{"x", "y", "z"} {
		v := m[n].BV.Int()
		cube := new(big.Int).Mul(v, v)
		cube.Mul(cube, v)
		sum.Add(sum, cube)
	}
	if sum.Int64() != 855 {
		t.Errorf("sum of cubes = %v, want 855 (model %v)", sum, m)
	}
}

// TestOpsAgainstConcrete cross-checks each circuit against the bv package
// semantics: for random constants a, b it asserts x = a OP b and checks
// the solver agrees with the concrete result.
func TestOpsAgainstConcrete(t *testing.T) {
	ops := []smt.Op{
		smt.OpBVAdd, smt.OpBVSub, smt.OpBVMul, smt.OpBVAnd, smt.OpBVOr,
		smt.OpBVXor, smt.OpBVUDiv, smt.OpBVURem, smt.OpBVSDiv,
		smt.OpBVSRem, smt.OpBVSMod, smt.OpBVShl, smt.OpBVLshr, smt.OpBVAshr,
	}
	rng := rand.New(rand.NewSource(11))
	for _, op := range ops {
		op := op
		t.Run(op.String(), func(t *testing.T) {
			for trial := 0; trial < 12; trial++ {
				w := 3 + rng.Intn(6)
				av := big.NewInt(int64(rng.Intn(1 << w)))
				bvv := big.NewInt(int64(rng.Intn(1 << w)))
				if trial == 0 {
					bvv = big.NewInt(0) // always cover the zero divisor
				}

				c := smt.NewConstraint("QF_BV")
				b := c.Builder
				x := c.MustDeclare("x", smt.BitVecSort(w))
				expr := b.MustApply(op, b.BV(av, w), b.BV(bvv, w))
				c.MustAssert(b.Eq(x, expr))

				st, m := solveConstraint(t, c)
				if st != sat.Sat {
					t.Fatalf("w=%d a=%v b=%v: status %v, want sat", w, av, bvv, st)
				}
				// The evaluator computes the concrete expected value.
				want, err := eval.Term(expr, nil)
				if err != nil {
					t.Fatalf("eval: %v", err)
				}
				if m["x"].BV.Uint().Cmp(want.BV.Uint()) != 0 {
					t.Errorf("w=%d %v(%v, %v) = %v, want %v", w, op, av, bvv, m["x"].BV, want.BV)
				}
			}
		})
	}
}

// TestComparisonsAgainstConcrete checks comparison circuits by asserting
// the comparison of two constants and matching sat/unsat to the concrete
// truth value.
func TestComparisonsAgainstConcrete(t *testing.T) {
	ops := []smt.Op{
		smt.OpBVSLt, smt.OpBVSLe, smt.OpBVSGt, smt.OpBVSGe,
		smt.OpBVULt, smt.OpBVULe, smt.OpBVUGt, smt.OpBVUGe,
		smt.OpBVSAddO, smt.OpBVSSubO, smt.OpBVSMulO, smt.OpBVSDivO,
	}
	rng := rand.New(rand.NewSource(13))
	for _, op := range ops {
		op := op
		t.Run(op.String(), func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				w := 3 + rng.Intn(5)
				av := big.NewInt(int64(rng.Intn(1 << w)))
				bvv := big.NewInt(int64(rng.Intn(1 << w)))

				c := smt.NewConstraint("QF_BV")
				b := c.Builder
				pred := b.MustApply(op, b.BV(av, w), b.BV(bvv, w))
				c.MustAssert(pred)

				want, err := eval.Term(pred, nil)
				if err != nil {
					t.Fatalf("eval: %v", err)
				}
				st, _ := solveConstraint(t, c)
				wantSt := sat.Unsat
				if want.Bool {
					wantSt = sat.Sat
				}
				if st != wantSt {
					t.Errorf("w=%d %v(%v, %v): status %v, want %v", w, op, av, bvv, st, wantSt)
				}
			}
		})
	}
}

// TestRandomConstraintsAgainstEnumeration builds small random constraints
// over one 4-bit variable and compares solver verdicts with brute force.
func TestRandomConstraintsAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	arith := []smt.Op{smt.OpBVAdd, smt.OpBVSub, smt.OpBVMul, smt.OpBVAnd, smt.OpBVOr, smt.OpBVXor}
	cmps := []smt.Op{smt.OpBVSLt, smt.OpBVULe, smt.OpBVSGe, smt.OpBVUGt}
	const w = 4
	for iter := 0; iter < 60; iter++ {
		c := smt.NewConstraint("QF_BV")
		b := c.Builder
		x := c.MustDeclare("x", smt.BitVecSort(w))
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			e := b.MustApply(arith[rng.Intn(len(arith))], x, b.BV(big.NewInt(int64(rng.Intn(16))), w))
			pred := b.MustApply(cmps[rng.Intn(len(cmps))], e, b.BV(big.NewInt(int64(rng.Intn(16))), w))
			c.MustAssert(pred)
		}

		// Brute force over all 16 values.
		wantSat := false
		for v := 0; v < 16; v++ {
			m := eval.Assignment{"x": eval.BVValue(bv.NewInt64(w, int64(v)))}
			ok, err := eval.Constraint(c, m)
			if err != nil {
				t.Fatalf("eval: %v", err)
			}
			if ok {
				wantSat = true
				break
			}
		}

		st, m := solveConstraint(t, c)
		if wantSat && st != sat.Sat {
			t.Fatalf("iter %d: status %v, want sat\n%s", iter, st, c.Script())
		}
		if !wantSat && st != sat.Unsat {
			t.Fatalf("iter %d: status %v, want unsat\n%s", iter, st, c.Script())
		}
		if st == sat.Sat {
			checkModel(t, c, m)
		}
	}
}

// TestVariableShiftAmounts exercises the barrel shifter with non-constant
// amounts (the constant case folds away during encoding).
func TestVariableShiftAmounts(t *testing.T) {
	const w = 5
	ops := []smt.Op{smt.OpBVShl, smt.OpBVLshr, smt.OpBVAshr}
	for _, op := range ops {
		op := op
		t.Run(op.String(), func(t *testing.T) {
			// For every (value, amount) pair, assert r = x OP y together
			// with x = value and y = amount as equalities over variables,
			// so the shifter sees literal vectors of unknowns.
			c := smt.NewConstraint("QF_BV")
			b := c.Builder
			x := c.MustDeclare("x", smt.BitVecSort(w))
			y := c.MustDeclare("y", smt.BitVecSort(w))
			r := c.MustDeclare("r", smt.BitVecSort(w))
			c.MustAssert(b.Eq(r, b.MustApply(op, x, y)))

			st, m := solveConstraint(t, c)
			if st != sat.Sat {
				t.Fatalf("status = %v", st)
			}
			checkModel(t, c, m)

			// Concrete cross-checks: pin x and y through variable
			// equalities (so the shifter circuit sees unknowns, not
			// foldable constants) and compare r with the bv semantics.
			rng := rand.New(rand.NewSource(29))
			for trial := 0; trial < 10; trial++ {
				a := int64(rng.Intn(1 << w))
				amt := int64(rng.Intn(1 << w))
				cc := smt.NewConstraint("QF_BV")
				bb := cc.Builder
				xx := cc.MustDeclare("x", smt.BitVecSort(w))
				yy := cc.MustDeclare("y", smt.BitVecSort(w))
				rr := cc.MustDeclare("r", smt.BitVecSort(w))
				cc.MustAssert(bb.Eq(xx, bb.BV(big.NewInt(a), w)))
				cc.MustAssert(bb.Eq(yy, bb.BV(big.NewInt(amt), w)))
				cc.MustAssert(bb.Eq(rr, bb.MustApply(op, xx, yy)))
				stc, mc := solveConstraint(t, cc)
				if stc != sat.Sat {
					t.Fatalf("a=%d amt=%d: status %v", a, amt, stc)
				}
				want, err := eval.Term(bb.MustApply(op, bb.BV(big.NewInt(a), w), bb.BV(big.NewInt(amt), w)), nil)
				if err != nil {
					t.Fatal(err)
				}
				if mc["r"].BV.Uint().Cmp(want.BV.Uint()) != 0 {
					t.Fatalf("%v(%d, %d) = %v, want %v", op, a, amt, mc["r"].BV, want.BV)
				}
			}

			// Pin a specific hard case: shift by >= width saturates.
			c2 := smt.NewConstraint("QF_BV")
			b2 := c2.Builder
			x2 := c2.MustDeclare("x", smt.BitVecSort(w))
			y2 := c2.MustDeclare("y", smt.BitVecSort(w))
			c2.MustAssert(b2.Eq(x2, b2.BV(big.NewInt(27), w)))
			c2.MustAssert(b2.MustApply(smt.OpBVUGe, y2, b2.BV(big.NewInt(int64(w)), w)))
			want, err := eval.Term(
				b2.MustApply(op, b2.BV(big.NewInt(27), w), b2.BV(big.NewInt(int64(w)), w)), nil)
			if err != nil {
				t.Fatal(err)
			}
			c2.MustAssert(b2.Eq(b2.MustApply(op, x2, y2), b2.BV(want.BV.Uint(), w)))
			st2, m2 := solveConstraint(t, c2)
			if st2 != sat.Sat {
				t.Fatalf("saturating shift: status = %v", st2)
			}
			checkModel(t, c2, m2)
		})
	}
}

func ExampleSolve() {
	c := smt.NewConstraint("QF_BV")
	b := c.Builder
	x := c.MustDeclare("x", smt.BitVecSort(8))
	c.MustAssert(b.Eq(b.MustApply(smt.OpBVMul, x, x), b.BV(big.NewInt(49), 8)))
	st, m, _ := Solve(c, nil)
	v := m["x"].BV.Int()
	vv := new(big.Int).Mul(v, v)
	fmt.Println(st, new(big.Int).Mod(vv, big.NewInt(256)))
	// Output: sat 49
}

// TestMultiplierExhaustive checks the one multiplier routine on every
// operand pair at widths 1 to 6. The operands are free variables, so no
// gate folds away; each pair solves a clone of the encoding with the
// operand bits fixed by unit clauses. bvmul, bvsmulo, bvudiv and bvurem
// are checked against the evaluator, and the signed and unsigned 2w-bit
// products against exact arithmetic, through a one-shot Blaster and
// through a one-round Session (solved under its activation literal).
func TestMultiplierExhaustive(t *testing.T) {
	for w := 1; w <= 6; w++ {
		c := smt.NewConstraint("QF_BV")
		b := c.Builder
		x := c.MustDeclare("x", smt.BitVecSort(w))
		y := c.MustDeclare("y", smt.BitVecSort(w))
		ops := []smt.Op{smt.OpBVMul, smt.OpBVSMulO, smt.OpBVUDiv, smt.OpBVURem}
		outs := make([]*smt.Term, len(ops))
		for i, op := range ops {
			sort := smt.BitVecSort(w)
			if op == smt.OpBVSMulO {
				sort = smt.BoolSort
			}
			outs[i] = c.MustDeclare(fmt.Sprintf("r%d", i), sort)
			c.MustAssert(b.Eq(outs[i], b.MustApply(op, x, y)))
		}
		mod := new(big.Int).Lsh(big.NewInt(1), uint(2*w))
		for _, session := range []bool{false, true} {
			s := sat.New()
			var bl *Blaster
			var guard []sat.Lit
			if session {
				sess := NewSession(s)
				if err := sess.Encode(c); err != nil {
					t.Fatal(err)
				}
				bl, guard = sess.cur, []sat.Lit{sess.act}
			} else {
				bl = New(s)
				if err := bl.Encode(c); err != nil {
					t.Fatal(err)
				}
			}
			xs, ys := bl.bits[x], bl.bits[y]
			sFull, uFull := bl.mul(xs, ys, 2*w, true), bl.mul(xs, ys, 2*w, false)
			for av := int64(0); av < 1<<w; av++ {
				for bvv := int64(0); bvv < 1<<w; bvv++ {
					r := s.Clone()
					for i := 0; i < w; i++ {
						r.AddClause(fixedBit(xs[i], av>>i&1 == 1))
						r.AddClause(fixedBit(ys[i], bvv>>i&1 == 1))
					}
					if st := r.SolveAssuming(guard...); st != sat.Sat {
						t.Fatalf("w=%d x=%d y=%d session=%v: status %v, want sat", w, av, bvv, session, st)
					}
					m := bl.ModelWith(r.Value)
					xv, yv := bv.NewInt64(w, av), bv.NewInt64(w, bvv)
					in := eval.Assignment{"x": eval.BVValue(xv), "y": eval.BVValue(yv)}
					for i, op := range ops {
						want, err := eval.Term(b.MustApply(op, x, y), in)
						if err != nil {
							t.Fatal(err)
						}
						if got := m[outs[i].Name]; got.String() != want.String() {
							t.Fatalf("w=%d session=%v: %v(%d, %d) = %v, want %v", w, session, op, av, bvv, got, want)
						}
					}
					signed := new(big.Int).Mul(xv.Int(), yv.Int())
					signed.Mod(signed, mod)
					if got := bl.vecValue(sFull, r.Value); got.Cmp(signed) != 0 {
						t.Fatalf("w=%d session=%v: signed 2w product of %d, %d = %v, want %v", w, session, av, bvv, got, signed)
					}
					unsigned := new(big.Int).Mul(xv.Uint(), yv.Uint())
					if got := bl.vecValue(uFull, r.Value); got.Cmp(unsigned) != 0 {
						t.Fatalf("w=%d session=%v: unsigned 2w product of %d, %d = %v, want %v", w, session, av, bvv, got, unsigned)
					}
				}
			}
		}
	}
}

// TestSMulOExhaustive checks the bvsmulo guard, bvsmulo(x, y) and
// bvsmulo(x, x), on every operand pair at widths 1 to 8 against exact
// arithmetic, through a one-shot Blaster and through a one-round Session.
// The operands are free variables, so the (w+1)-bit product and the
// leading-bit chain are really built; each pair is fixed by assumptions
// on one solver, under which the gates' Tseitin clauses propagate every
// output without a conflict.
func TestSMulOExhaustive(t *testing.T) {
	for w := 1; w <= 8; w++ {
		c := smt.NewConstraint("QF_BV")
		b := c.Builder
		x := c.MustDeclare("x", smt.BitVecSort(w))
		y := c.MustDeclare("y", smt.BitVecSort(w))
		rxy := c.MustDeclare("rxy", smt.BoolSort)
		rxx := c.MustDeclare("rxx", smt.BoolSort)
		c.MustAssert(b.Eq(rxy, b.MustApply(smt.OpBVSMulO, x, y)))
		c.MustAssert(b.Eq(rxx, b.MustApply(smt.OpBVSMulO, x, x)))
		lo := new(big.Int).Neg(new(big.Int).Lsh(big.NewInt(1), uint(w-1)))
		hi := new(big.Int).Lsh(big.NewInt(1), uint(w-1))
		overflows := func(p *big.Int) bool { return p.Cmp(lo) < 0 || p.Cmp(hi) >= 0 }
		for _, session := range []bool{false, true} {
			s := sat.New()
			var bl *Blaster
			var assume []sat.Lit
			if session {
				sess := NewSession(s)
				if err := sess.Encode(c); err != nil {
					t.Fatal(err)
				}
				bl, assume = sess.cur, []sat.Lit{sess.act}
			} else {
				bl = New(s)
				if err := bl.Encode(c); err != nil {
					t.Fatal(err)
				}
			}
			xs, ys := bl.bits[x], bl.bits[y]
			guard := len(assume)
			for av := int64(0); av < 1<<w; av++ {
				for bvv := int64(0); bvv < 1<<w; bvv++ {
					assume = assume[:guard]
					for i := 0; i < w; i++ {
						assume = append(assume, fixedBit(xs[i], av>>i&1 == 1), fixedBit(ys[i], bvv>>i&1 == 1))
					}
					if st := s.SolveAssuming(assume...); st != sat.Sat {
						t.Fatalf("w=%d x=%d y=%d session=%v: status %v, want sat", w, av, bvv, session, st)
					}
					xv, yv := bv.NewInt64(w, av).Int(), bv.NewInt64(w, bvv).Int()
					if got, want := bl.litVal(bl.bools[rxy]), overflows(new(big.Int).Mul(xv, yv)); got != want {
						t.Fatalf("w=%d session=%v: bvsmulo(%v, %v) = %v, want %v", w, session, xv, yv, got, want)
					}
					if got, want := bl.litVal(bl.bools[rxx]), overflows(new(big.Int).Mul(xv, xv)); got != want {
						t.Fatalf("w=%d session=%v: bvsmulo(%v, %v) = %v, want %v", w, session, xv, xv, got, want)
					}
				}
			}
			if s.Stats.Conflicts != 0 {
				t.Errorf("w=%d session=%v: %d conflicts, want 0 (fixed operands must propagate every gate)", w, session, s.Stats.Conflicts)
			}
		}
	}
}

// TestSMulOGuardSize pins the bvsmulo guard's size: on top of an encoded
// bvmul over the same free operands it may add at most 12·w variables.
// A guard that builds its own 2w-bit product adds several times that
// (749 variables at w = 16).
func TestSMulOGuardSize(t *testing.T) {
	vars := func(w int, guarded bool) int {
		c := smt.NewConstraint("QF_BV")
		b := c.Builder
		x := c.MustDeclare("x", smt.BitVecSort(w))
		y := c.MustDeclare("y", smt.BitVecSort(w))
		z := c.MustDeclare("z", smt.BitVecSort(w))
		c.MustAssert(b.Eq(z, b.MustApply(smt.OpBVMul, x, y)))
		if guarded {
			c.MustAssert(b.Not(b.MustApply(smt.OpBVSMulO, x, y)))
		}
		s := sat.New()
		if err := New(s).Encode(c); err != nil {
			t.Fatal(err)
		}
		return s.NumVars()
	}
	for _, w := range []int{8, 16, 32} {
		added := vars(w, true) - vars(w, false)
		t.Logf("w=%d: the guard adds %d variables over bvmul", w, added)
		if added > 12*w {
			t.Errorf("w=%d: the bvsmulo guard adds %d variables over bvmul, want at most %d", w, added, 12*w)
		}
	}
}

// fixedBit is the unit literal fixing l to v.
func fixedBit(l sat.Lit, v bool) sat.Lit {
	if v {
		return l
	}
	return l.Not()
}

// vecValue reads a literal vector's unsigned value through val.
func (b *Blaster) vecValue(ls []sat.Lit, val func(v int) bool) *big.Int {
	v := new(big.Int)
	for i, l := range ls {
		if b.litValWith(l, val) {
			v.SetBit(v, i, 1)
		}
	}
	return v
}
