// Differential safety net for the CDCL core: seeded random CNF instances
// cross-checked against an exhaustive oracle and against independent
// solver configurations. Everything here is deterministic (fixed seeds)
// and small enough to brute-force, so a verdict mismatch is always a
// solver bug, never flakiness. The `sat-diff` make gate runs these under
// the race detector.
package sat

import (
	"math"
	"math/rand"
	"testing"
)

// randCNF generates a random CNF with mixed clause widths (1..4) over
// nVars variables. Width-1 clauses make unit propagation and level-0
// conflicts common; repeated variables inside a clause exercise
// tautology/duplicate handling in preprocessing.
func randCNF(rng *rand.Rand, nVars, nClauses int) [][]Lit {
	clauses := make([][]Lit, nClauses)
	for i := range clauses {
		w := 1 + rng.Intn(4)
		cl := make([]Lit, w)
		for j := range cl {
			v := rng.Intn(nVars)
			if rng.Intn(2) == 0 {
				cl[j] = PosLit(v)
			} else {
				cl[j] = NegLit(v)
			}
		}
		clauses[i] = cl
	}
	return clauses
}

// buildSolver loads clauses into a fresh solver over nVars variables.
func buildSolver(nVars int, clauses [][]Lit) *Solver {
	s := New()
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	for _, cl := range clauses {
		s.AddClause(cl...)
	}
	return s
}

// checkModel fails the test unless the solver's model satisfies clauses.
func checkModel(t *testing.T, tag string, s *Solver, clauses [][]Lit) {
	t.Helper()
	for ci, cl := range clauses {
		ok := false
		for _, l := range cl {
			if s.Value(l.Var()) != l.Sign() {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("%s: model does not satisfy clause %d (%v)", tag, ci, cl)
		}
	}
}

// rand3SAT generates a uniform random 3-SAT instance over nVars variables
// with about 4.26 clauses a variable, the satisfiability threshold, where
// the solver learns on almost every instance.
func rand3SAT(rng *rand.Rand, nVars int) [][]Lit {
	clauses := make([][]Lit, nVars*426/100)
	for i := range clauses {
		clauses[i] = []Lit{Lit(rng.Intn(2 * nVars)), Lit(rng.Intn(2 * nVars)), Lit(rng.Intn(2 * nVars))}
	}
	return clauses
}

// TestSATDiffOracle cross-checks every solver configuration — default
// settings, an aggressive reduceDB schedule, and preprocessing with and
// without variable elimination — against the brute-force oracle on the
// same instances.
func TestSATDiffOracle(t *testing.T) {
	configs := []struct {
		name string
		run  func(nVars int, clauses [][]Lit) (*Solver, Status)
	}{
		{"default", func(n int, cls [][]Lit) (*Solver, Status) {
			s := buildSolver(n, cls)
			return s, s.Solve()
		}},
		{"glue", func(n int, cls [][]Lit) (*Solver, Status) {
			s := buildSolver(n, cls)
			s.ReduceFirst = 8 // force frequent reductions on tiny instances
			return s, s.Solve()
		}},
		{"glue+subsume", func(n int, cls [][]Lit) (*Solver, Status) {
			s := buildSolver(n, cls)
			s.Preprocess(PreprocessOptions{})
			return s, s.Solve()
		}},
		{"glue+varelim", func(n int, cls [][]Lit) (*Solver, Status) {
			s := buildSolver(n, cls)
			s.Preprocess(PreprocessOptions{VarElim: true, MaxOccur: 6})
			return s, s.Solve()
		}},
	}
	rng := rand.New(rand.NewSource(2026))
	for iter := 0; iter < 300; iter++ {
		nVars := 3 + rng.Intn(10) // ≤ 12 vars: oracle stays instant
		nClauses := 2 + rng.Intn(40)
		clauses := randCNF(rng, nVars, nClauses)
		want := Unsat
		if bruteForceSat(nVars, clauses) {
			want = Sat
		}
		for _, cfg := range configs {
			s, got := cfg.run(nVars, clauses)
			if got != want {
				t.Fatalf("iter %d cfg %s: Solve() = %v, oracle says %v", iter, cfg.name, got, want)
			}
			if got == Sat {
				checkModel(t, cfg.name, s, clauses)
			}
		}
	}
}

// TestSATDiffAssumptions checks SolveAssuming against a fresh solver
// with the assumptions added as unit clauses: the verdicts must match,
// and the incremental solver must stay reusable (and consistent with the
// oracle) across many assumption sets over the same clause database.
func TestSATDiffAssumptions(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for iter := 0; iter < 60; iter++ {
		nVars := 4 + rng.Intn(8)
		nClauses := 2 + rng.Intn(30)
		clauses := randCNF(rng, nVars, nClauses)
		inc := buildSolver(nVars, clauses)
		inc.ReduceFirst = 8
		for round := 0; round < 8; round++ {
			nAssump := rng.Intn(4)
			seen := map[int]bool{}
			var assumptions []Lit
			for len(assumptions) < nAssump {
				v := rng.Intn(nVars)
				if seen[v] {
					continue
				}
				seen[v] = true
				if rng.Intn(2) == 0 {
					assumptions = append(assumptions, PosLit(v))
				} else {
					assumptions = append(assumptions, NegLit(v))
				}
			}
			fresh := buildSolver(nVars, clauses)
			for _, a := range assumptions {
				fresh.AddClause(a)
			}
			want := fresh.Solve()
			got := inc.SolveAssuming(assumptions...)
			if got != want {
				t.Fatalf("iter %d round %d: SolveAssuming(%v) = %v, fresh copy says %v",
					iter, round, assumptions, got, want)
			}
			if got == Sat {
				checkModel(t, "incremental", inc, clauses)
				for _, a := range assumptions {
					if inc.Value(a.Var()) == a.Sign() {
						t.Fatalf("iter %d round %d: model violates assumption %v", iter, round, a)
					}
				}
			}
		}
	}
}

// TestSATDiffInprocessing interleaves Preprocess (subsumption only, as
// the incremental session does between rounds) with assumption solves
// and checks the verdicts never drift from a fresh-copy reference.
func TestSATDiffInprocessing(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 40; iter++ {
		nVars := 4 + rng.Intn(8)
		clauses := randCNF(rng, nVars, 2+rng.Intn(25))
		inc := buildSolver(nVars, clauses)
		for round := 0; round < 6; round++ {
			inc.Preprocess(PreprocessOptions{})
			var assumptions []Lit
			if rng.Intn(2) == 0 {
				v := rng.Intn(nVars)
				if rng.Intn(2) == 0 {
					assumptions = append(assumptions, PosLit(v))
				} else {
					assumptions = append(assumptions, NegLit(v))
				}
			}
			fresh := buildSolver(nVars, clauses)
			for _, a := range assumptions {
				fresh.AddClause(a)
			}
			want := fresh.Solve()
			if got := inc.SolveAssuming(assumptions...); got != want {
				t.Fatalf("iter %d round %d: verdict drifted to %v after inprocessing, want %v",
					iter, round, got, want)
			}
		}
	}
}

// TestSATDiffGrowingDatabase mirrors the activation-literal retirement
// pattern from the bit-blasting session: clauses guarded by an activation
// literal, solved under assumption, then retired and replaced; after each
// round the verdict must match a from-scratch solver seeing only the live
// clauses.
func TestSATDiffGrowingDatabase(t *testing.T) {
	rng := rand.New(rand.NewSource(7331))
	for iter := 0; iter < 30; iter++ {
		nVars := 4 + rng.Intn(6)
		base := randCNF(rng, nVars, 2+rng.Intn(12))
		inc := buildSolver(nVars, base)
		for round := 0; round < 5; round++ {
			act := PosLit(inc.NewVar())
			extra := randCNF(rng, nVars, 1+rng.Intn(8))
			for _, cl := range extra {
				guarded := append([]Lit{act.Not()}, cl...)
				inc.AddClause(guarded...)
			}
			fresh := buildSolver(nVars, append(append([][]Lit(nil), base...), extra...))
			want := fresh.Solve()
			if got := inc.SolveAssuming(act); got != want {
				t.Fatalf("iter %d round %d: guarded solve = %v, fresh copy says %v", iter, round, got, want)
			}
			// Retire the round and inprocess, as bitblast.Session does.
			inc.AddClause(act.Not())
			inc.Preprocess(PreprocessOptions{})
			freshBase := buildSolver(nVars, base)
			want = freshBase.Solve()
			if got := inc.Solve(); got != want {
				t.Fatalf("iter %d round %d: post-retirement solve = %v, want %v", iter, round, got, want)
			}
		}
	}
}

// TestLearntClausesAreRUP is a soundness oracle for conflict analysis and
// minimization: with frequent DB reduction and no preprocessing, every
// learnt clause Export receives must be a reverse unit propagation (RUP)
// consequence of the original clauses and the clauses learnt before it.
// Falsifying all its literals and propagating must reach a conflict. A
// minimizer that drops one literal too many learns a clause that is not
// implied, and this fails. TestSATDiffOracle's mixed-width CNFs are
// settled by propagation alone (a quarter of their clauses are units), so
// this draws random 3-SAT.
func TestLearntClausesAreRUP(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	checked := 0
	for iter := 0; iter < 300; iter++ {
		nVars := 20 + rng.Intn(30)
		clauses := rand3SAT(rng, nVars)
		s := buildSolver(nVars, clauses)
		s.ReduceFirst = 8
		s.ExportLBD = math.MaxInt
		db := append([][]Lit(nil), clauses...)
		s.Export = func(lits []Lit, _ int) {
			if !rup(nVars, db, lits) {
				t.Fatalf("iter %d: learnt clause %v is not RUP over the %d clauses before it", iter, lits, len(db))
			}
			db = append(db, lits)
			checked++
		}
		s.Solve()
	}
	if checked < 3000 {
		t.Fatalf("%d learnt clauses checked, want ≥ 3000", checked)
	}
}

// rup reports whether unit propagation over db, from the assignment that
// falsifies every literal of clause, reaches a conflict. It is a plain
// fixpoint loop, independent of the solver's watch lists.
func rup(nVars int, db [][]Lit, clause []Lit) bool {
	val := make([]lbool, 2*nVars)
	set := func(l Lit) bool {
		switch val[l] {
		case lFalse:
			return false
		case lUndef:
			val[l], val[l.Not()] = lTrue, lFalse
		}
		return true
	}
	for _, l := range clause {
		if !set(l.Not()) {
			return true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, cl := range db {
			var unit Lit
			open := 0
			sat := false
			for _, l := range cl {
				switch val[l] {
				case lTrue:
					sat = true
				case lUndef:
					if open == 0 || l != unit { // a repeated literal counts once
						unit = l
						open++
					}
				}
			}
			switch {
			case sat || open > 1:
			case open == 0:
				return true
			default:
				set(unit)
				changed = true
			}
		}
	}
	return false
}
