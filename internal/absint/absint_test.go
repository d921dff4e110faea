package absint

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"staub/internal/eval"
	"staub/internal/smt"
)

// TestGaloisConnectionInt checks Lemma 4.3: α(C) <= a  ⟺  C ⊆ γ(a).
func TestGaloisConnectionInt(t *testing.T) {
	f := func(raw []int32, aRaw uint8) bool {
		a := int(aRaw%40) + 1
		vals := make([]*big.Int, len(raw))
		inGamma := true
		for i, v := range raw {
			vals[i] = big.NewInt(int64(v))
			if !InGammaInt(vals[i], a) {
				inGamma = false
			}
		}
		alpha := AlphaInt(vals)
		return (alpha <= a) == inGamma
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestGaloisConnectionReal checks Lemma 4.4 on dyadic rationals.
func TestGaloisConnectionReal(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 2000; iter++ {
		n := rng.Intn(5) + 1
		vals := make([]*big.Rat, n)
		for i := range vals {
			num := int64(rng.Intn(2001) - 1000)
			den := int64(1) << rng.Intn(6)
			vals[i] = big.NewRat(num, den)
		}
		a := MP{M: rng.Intn(16) + 1, P: rng.Intn(8)}
		if rng.Intn(8) == 0 {
			a.PInf = true
		}
		inGamma := true
		for _, v := range vals {
			if !InGammaReal(v, a) {
				inGamma = false
				break
			}
		}
		alpha := AlphaReal(vals)
		if (alpha.Leq(a)) != inGamma {
			t.Fatalf("Galois violation: vals=%v a=%v alpha=%v leq=%t inGamma=%t",
				vals, a, alpha, alpha.Leq(a), inGamma)
		}
	}
}

// TestMPOrderIsNotLexicographic checks the Equation 3 ordering: (1, 5) and
// (5, 1) are incomparable.
func TestMPOrderIsNotLexicographic(t *testing.T) {
	a := MP{M: 1, P: 5}
	b := MP{M: 5, P: 1}
	if a.Leq(b) || b.Leq(a) {
		t.Error("(1,5) and (5,1) must be incomparable")
	}
	if !a.Leq(MP{M: 5, P: 5}) {
		t.Error("(1,5) ⊑ (5,5) must hold")
	}
	inf := MP{M: 3, PInf: true}
	if !(MP{M: 2, P: 1000}).Leq(inf) {
		t.Error("finite precision ⊑ infinite precision must hold")
	}
	if inf.Leq(MP{M: 3, P: 1000}) {
		t.Error("infinite precision ⊑ finite precision must not hold")
	}
}

func TestMPJoin(t *testing.T) {
	a := MP{M: 3, P: 7}
	b := MP{M: 5, P: 2}
	j := a.Join(b)
	if j.M != 5 || j.P != 7 || j.PInf {
		t.Errorf("Join = %v, want (m=5, p=7)", j)
	}
	if !a.Leq(j) || !b.Leq(j) {
		t.Error("Join is not an upper bound")
	}
	withInf := a.Join(MP{M: 1, PInf: true})
	if !withInf.PInf || withInf.M != 3 {
		t.Errorf("Join with infinite precision = %v", withInf)
	}
}

// randomIntTerm builds a random integer term over the given variables.
func randomIntTerm(rng *rand.Rand, b *smt.Builder, vars []*smt.Term, depth int) *smt.Term {
	if depth == 0 || rng.Intn(3) == 0 {
		if rng.Intn(2) == 0 {
			return vars[rng.Intn(len(vars))]
		}
		return b.Int(int64(rng.Intn(31) - 15))
	}
	l := randomIntTerm(rng, b, vars, depth-1)
	r := randomIntTerm(rng, b, vars, depth-1)
	switch rng.Intn(4) {
	case 0:
		return b.Add(l, r)
	case 1:
		return b.Sub(l, r)
	case 2:
		return b.Mul(l, r)
	default:
		return b.Neg(l)
	}
}

// TestSoundSemanticsTheorem45 checks Theorem 4.5 empirically: with the
// sound semantics, evaluating any constraint at points within γ(x) keeps
// every intermediate result within the inferred per-node width.
func TestSoundSemanticsTheorem45(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 300; iter++ {
		c := smt.NewConstraint("QF_NIA")
		b := c.Builder
		nVars := rng.Intn(3) + 1
		vars := make([]*smt.Term, nVars)
		for i := range vars {
			vars[i] = c.MustDeclare(string(rune('a'+i)), smt.IntSort)
		}
		expr := randomIntTerm(rng, b, vars, rng.Intn(3)+1)
		pred := b.Le(expr, b.Int(int64(rng.Intn(100))))
		c.MustAssert(pred)

		x := rng.Intn(6) + 2
		res := InferIntWith(c, x, SemSound)

		// Evaluate at random points with |v| < 2^(x-1).
		for trial := 0; trial < 20; trial++ {
			asg := eval.Assignment{}
			lo, hi := GammaInt(x)
			span := new(big.Int).Sub(hi, lo)
			for _, v := range vars {
				off := new(big.Int).Rand(rng, new(big.Int).Add(span, big.NewInt(1)))
				asg[v.Name] = eval.IntValue(new(big.Int).Add(lo, off))
			}
			// Check every node's value against its inferred width.
			ok := true
			pred.Walk(func(n *smt.Term) bool {
				if n.Sort.Kind != smt.KindInt {
					return true
				}
				val, err := eval.Term(n, asg)
				if err != nil {
					ok = false
					return false
				}
				w := res.PerNode[n]
				if !InGammaInt(val.Int, w) {
					t.Fatalf("node %s evaluates to %v outside width %d (x=%d)", n, val.Int, w, x)
				}
				return true
			})
			if !ok {
				break
			}
		}
	}
}

func TestPracticalNarrowerThanSound(t *testing.T) {
	c, err := smt.ParseScript(`
		(declare-fun x () Int)
		(declare-fun y () Int)
		(declare-fun z () Int)
		(assert (= (+ (* x x x) (* y y y) (* z z z)) 855))
		(check-sat)`)
	if err != nil {
		t.Fatal(err)
	}
	x := DefaultIntX(c)
	if x != 11 {
		t.Errorf("DefaultIntX = %d, want 11 (bitlen(855)+1)", x)
	}
	practical := InferIntWith(c, x, SemPractical)
	sound := InferIntWith(c, x, SemSound)
	if practical.Root != 12 {
		t.Errorf("practical root = %d, want 12 (the paper's Figure 1 width)", practical.Root)
	}
	if sound.Root <= practical.Root {
		t.Errorf("sound root %d should exceed practical root %d on a cubic", sound.Root, practical.Root)
	}
}

func TestFigure4Example(t *testing.T) {
	c, err := smt.ParseScript(`
		(declare-fun a () Int)
		(declare-fun b () Int)
		(assert (>= a 15))
		(assert (< (- a b) 0))
		(check-sat)`)
	if err != nil {
		t.Fatal(err)
	}
	x := DefaultIntX(c)
	res := InferIntWith(c, x, SemPractical)
	// The subtraction adds one bit over the x = 5 assumption.
	if res.Root != x+1 {
		t.Errorf("root = %d, want %d", res.Root, x+1)
	}
}

func TestInferRealDivisionStaysFinite(t *testing.T) {
	c, err := smt.ParseScript(`
		(declare-fun u () Real)
		(declare-fun v () Real)
		(assert (> (/ u v) 0.5))
		(check-sat)`)
	if err != nil {
		t.Fatal(err)
	}
	res := InferReal(c, MP{M: 4, P: 2})
	if res.Root.PInf {
		t.Error("division must not produce infinite precision (implementation note in §4.2)")
	}
}

func TestSelectBVWidthClamps(t *testing.T) {
	if got := SelectBVWidth(3); got != 4 {
		t.Errorf("SelectBVWidth(3) = %d, want 4", got)
	}
	if got := SelectBVWidth(100); got != 64 {
		t.Errorf("SelectBVWidth(100) = %d, want 64", got)
	}
	if got := SelectBVWidth(12); got != 12 {
		t.Errorf("SelectBVWidth(12) = %d, want 12", got)
	}
}

func TestSelectFPSortCoversDomain(t *testing.T) {
	root := MP{M: 6, P: 4}
	s := SelectFPSort(root)
	if s.Kind != smt.KindFloat {
		t.Fatalf("sort kind = %v", s.Kind)
	}
	// The significand must hold m-1 integer plus p fractional bits.
	if s.SB < root.M+root.P-1 {
		t.Errorf("significand %d too small for (m=%d, p=%d)", s.SB, root.M, root.P)
	}
	// Infinite precision must clamp to the precision cap of 24, not panic.
	if s2 := SelectFPSort(MP{M: 4, PInf: true}); s2.SB != 4+24 {
		t.Errorf("infinite precision not clamped: sb=%d, want 28", s2.SB)
	}
	// The significand never exceeds 53 bits.
	if s3 := SelectFPSort(MP{M: 60, P: 10}); s3.SB != 53 {
		t.Errorf("significand not clamped: sb=%d, want 53", s3.SB)
	}
}
