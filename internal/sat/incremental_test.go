package sat

import (
	"math/rand"
	"testing"
)

// TestRepeatedSolveConsistent is the regression test for the Solver doc
// contract: repeated Solve calls after AddClause must keep returning
// correct, consistent statuses with state retained in between.
func TestRepeatedSolveConsistent(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	s.AddClause(NegLit(a), PosLit(c))
	for i := 0; i < 4; i++ {
		if got := s.Solve(); got != Sat {
			t.Fatalf("Solve() call %d = %v, want Sat", i+1, got)
		}
		if !(s.Value(a) || s.Value(b)) || (s.Value(a) && !s.Value(c)) {
			t.Fatalf("Solve() call %d produced a non-model", i+1)
		}
	}
	// Clauses added after a Sat solve must be simplified against level-0
	// facts only, not the previous model.
	s.AddClause(NegLit(b))
	s.AddClause(PosLit(a))
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve() after additions = %v, want Sat", got)
	}
	if !s.Value(a) || s.Value(b) || !s.Value(c) {
		t.Fatalf("model after additions: a=%v b=%v c=%v, want a ∧ ¬b ∧ c",
			s.Value(a), s.Value(b), s.Value(c))
	}
	s.AddClause(NegLit(c))
	for i := 0; i < 3; i++ {
		if got := s.Solve(); got != Unsat {
			t.Fatalf("Solve() call %d after contradiction = %v, want Unsat", i+1, got)
		}
	}
}

func TestSolveAssumingBasic(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))

	if got := s.SolveAssuming(NegLit(a)); got != Sat {
		t.Fatalf("SolveAssuming(¬a) = %v, want Sat", got)
	}
	if s.Value(a) || !s.Value(b) {
		t.Fatalf("model under ¬a: a=%v b=%v, want ¬a ∧ b", s.Value(a), s.Value(b))
	}

	if got := s.SolveAssuming(NegLit(a), NegLit(b)); got != Unsat {
		t.Fatalf("SolveAssuming(¬a, ¬b) = %v, want Unsat", got)
	}
	core := s.FailedAssumptions()
	if len(core) == 0 || len(core) > 2 {
		t.Fatalf("failed core %v, want a nonempty subset of the assumptions", core)
	}
	for _, l := range core {
		if l != NegLit(a) && l != NegLit(b) {
			t.Fatalf("failed core contains non-assumption literal %v", l)
		}
	}

	// Assumptions must not persist: the formula itself is satisfiable.
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve() after assumption Unsat = %v, want Sat", got)
	}
}

// TestRepeatedAssumptionLevels: each assumption opens its own decision
// level, a repeated or already-implied one too, so decision levels can
// outnumber the variables. LBD computation must index by level, not by
// variable count.
func TestRepeatedAssumptionLevels(t *testing.T) {
	s := New()
	pigeonhole(s, 6, 5)
	a := PosLit(s.NewVar())
	as := make([]Lit, 100)
	for i := range as {
		as[i] = a
	}
	if got := s.SolveAssuming(as...); got != Unsat {
		t.Fatalf("SolveAssuming(100 × a) = %v, want Unsat", got)
	}
	if core := s.FailedAssumptions(); len(core) != 0 {
		t.Fatalf("failed core %v, want empty: PHP(6,5) is unsat outright", core)
	}
}

// TestFailedAssumptionCoreIsRelevant checks the final-conflict analysis
// excludes assumptions the refutation never touched.
func TestFailedAssumptionCoreIsRelevant(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(NegLit(a), NegLit(b))
	if got := s.SolveAssuming(PosLit(a), PosLit(b), PosLit(c)); got != Unsat {
		t.Fatalf("SolveAssuming(a, b, c) = %v, want Unsat", got)
	}
	for _, l := range s.FailedAssumptions() {
		if l == PosLit(c) {
			t.Fatalf("failed core %v contains irrelevant assumption c", s.FailedAssumptions())
		}
	}
	if got := s.SolveAssuming(PosLit(a), PosLit(c)); got != Sat {
		t.Fatalf("SolveAssuming(a, c) = %v, want Sat", got)
	}
	if len(s.FailedAssumptions()) != 0 {
		t.Fatalf("FailedAssumptions() after Sat = %v, want empty", s.FailedAssumptions())
	}
}

// TestActivationLiteralRetirement exercises the clause-guarding pattern
// the incremental bit-blaster uses: clauses guarded by an activation
// literal are enforced only while it is assumed and are permanently
// disabled by asserting its negation.
func TestActivationLiteralRetirement(t *testing.T) {
	s := New()
	x := s.NewVar()
	act1, act2 := s.NewVar(), s.NewVar()
	s.AddClause(NegLit(act1), PosLit(x)) // round 1: x
	s.AddClause(NegLit(act2), NegLit(x)) // round 2: ¬x

	if got := s.SolveAssuming(PosLit(act1)); got != Sat {
		t.Fatalf("round 1 = %v, want Sat", got)
	}
	if !s.Value(x) {
		t.Fatal("round 1: x = false, want true")
	}
	if got := s.SolveAssuming(PosLit(act1), PosLit(act2)); got != Unsat {
		t.Fatalf("both rounds active = %v, want Unsat", got)
	}
	s.AddClause(NegLit(act1)) // retire round 1
	if got := s.SolveAssuming(PosLit(act2)); got != Sat {
		t.Fatalf("round 2 after retirement = %v, want Sat", got)
	}
	if s.Value(x) {
		t.Fatal("round 2: x = true, want false")
	}
}

// TestIncrementalAgainstBruteForce solves random 3SAT instances in two
// increments with random assumptions between them, cross-checking every
// verdict against exhaustive enumeration (assumptions modeled as unit
// clauses).
func TestIncrementalAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	randClauses := func(nVars, n int) [][]Lit {
		out := make([][]Lit, n)
		for i := range out {
			cl := make([]Lit, 3)
			for j := range cl {
				v := rng.Intn(nVars)
				if rng.Intn(2) == 0 {
					cl[j] = PosLit(v)
				} else {
					cl[j] = NegLit(v)
				}
			}
			out[i] = cl
		}
		return out
	}
	for iter := 0; iter < 150; iter++ {
		nVars := 4 + rng.Intn(6)
		first := randClauses(nVars, 2+rng.Intn(15))
		second := randClauses(nVars, 1+rng.Intn(10))
		var assumptions []Lit
		for v := 0; v < nVars; v++ {
			if rng.Intn(4) == 0 {
				if rng.Intn(2) == 0 {
					assumptions = append(assumptions, PosLit(v))
				} else {
					assumptions = append(assumptions, NegLit(v))
				}
			}
		}
		units := make([][]Lit, len(assumptions))
		for i, l := range assumptions {
			units[i] = []Lit{l}
		}

		s := New()
		for v := 0; v < nVars; v++ {
			s.NewVar()
		}
		for _, cl := range first {
			s.AddClause(cl...)
		}
		check := func(stage string, clauses [][]Lit, assume []Lit) {
			t.Helper()
			all := append([][]Lit{}, clauses...)
			if assume != nil {
				all = append(all, units...)
			}
			want := Unsat
			if bruteForceSat(nVars, all) {
				want = Sat
			}
			got := s.SolveAssuming(assume...)
			if got != want {
				t.Fatalf("iter %d %s: SolveAssuming = %v, want %v", iter, stage, got, want)
			}
			if got == Sat {
				for ci, cl := range all {
					ok := false
					for _, l := range cl {
						if s.Value(l.Var()) != l.Sign() {
							ok = true
							break
						}
					}
					if !ok {
						t.Fatalf("iter %d %s: model violates clause %d", iter, stage, ci)
					}
				}
			}
		}
		check("first/plain", first, nil)
		check("first/assumed", first, assumptions)
		for _, cl := range second {
			s.AddClause(cl...)
		}
		both := append(append([][]Lit{}, first...), second...)
		check("second/assumed", both, assumptions)
		check("second/plain", both, nil)
	}
}

// TestLearnedStateRetainedAcrossSolves checks a second identical solve is
// cheaper than the first: learned clauses and activity survive the call
// boundary instead of being rebuilt from scratch.
func TestLearnedStateRetainedAcrossSolves(t *testing.T) {
	s := New()
	pigeonhole(s, 7, 7) // satisfiable but search-heavy
	if got := s.Solve(); got != Sat {
		t.Fatalf("first Solve() = %v, want Sat", got)
	}
	first := s.Stats.Conflicts
	if got := s.Solve(); got != Sat {
		t.Fatalf("second Solve() = %v, want Sat", got)
	}
	delta := s.Stats.Conflicts - first
	if first > 0 && delta > first/2 {
		t.Errorf("second solve cost %d conflicts vs %d on the first; learned state should make repeats cheaper", delta, first)
	}
}
