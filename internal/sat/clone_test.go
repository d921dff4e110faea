package sat_test

import (
	"math/rand"
	"sync"
	"testing"

	"staub/internal/benchgen"
	"staub/internal/bitblast"
	"staub/internal/core"
	"staub/internal/sat"
)

// TestCloneSolvesAlike checks that a clone is the original's twin: taken
// before any search, the clone and the original, solved concurrently,
// reach the same status and model with the same Stats deltas. Solving
// both at once lets the race detector (the sat-diff gate) prove that
// Clone copies every array the search writes; the cube tier solves on
// clones.
func TestCloneSolvesAlike(t *testing.T) {
	t.Run("pigeonhole", func(t *testing.T) {
		s := sat.New()
		pigeonhole(s, 6, 5)
		cloneAlike(t, s, sat.Unsat)
	})
	t.Run("planted", func(t *testing.T) {
		// A planted random 3-SAT instance near the threshold, with an
		// early reduction schedule so learned-clause deletion runs too.
		s := sat.New()
		s.ReduceFirst = 50
		plantedCNF(s, rand.New(rand.NewSource(7)), 200, 850)
		cloneAlike(t, s, sat.Sat)
	})
	t.Run("bitblast", func(t *testing.T) {
		// A benchgen constraint bit-blasted and preprocessed the way
		// bitblast.Solve prepares it, cloned just before the search.
		insts, err := benchgen.Suite("QF_NIA", 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		tr, _, err := core.Transform(insts[2].Constraint, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		s := sat.New()
		if err := bitblast.New(s).Encode(tr.Bounded); err != nil {
			t.Fatal(err)
		}
		s.Preprocess()
		cloneAlike(t, s, sat.Sat)
	})
}

// cloneAlike clones s, solves the clone and s concurrently, and checks
// that both reach want with identical models and Stats deltas.
func cloneAlike(t *testing.T, s *sat.Solver, want sat.Status) {
	t.Helper()
	c := s.Clone()
	before := s.Stats
	var cst sat.Status
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cst = c.Solve()
	}()
	st := s.Solve()
	wg.Wait()
	if st != want || cst != want {
		t.Fatalf("original %v, clone %v; want %v", st, cst, want)
	}
	if st == sat.Sat {
		for v := 0; v < s.NumVars(); v++ {
			if s.Value(v) != c.Value(v) {
				t.Fatalf("model differs at var %d: original %v, clone %v", v, s.Value(v), c.Value(v))
			}
		}
	}
	if d := statsDelta(s.Stats, before); d != c.Stats {
		t.Fatalf("Stats delta differs:\noriginal %+v\n   clone %+v", d, c.Stats)
	}
	if c.Stats.Conflicts == 0 {
		t.Fatalf("instance needed no conflicts; it exercises nothing")
	}
}

func statsDelta(after, before sat.Stats) sat.Stats {
	d := sat.Stats{
		Decisions:    after.Decisions - before.Decisions,
		Propagations: after.Propagations - before.Propagations,
		Conflicts:    after.Conflicts - before.Conflicts,
		Restarts:     after.Restarts - before.Restarts,
		Learned:      after.Learned - before.Learned,
		GlueLearned:  after.GlueLearned - before.GlueLearned,
		Reductions:   after.Reductions - before.Reductions,
		Deleted:      after.Deleted - before.Deleted,
		Subsumed:     after.Subsumed - before.Subsumed,
		Strengthened: after.Strengthened - before.Strengthened,
	}
	for i := range d.LBDHist {
		d.LBDHist[i] = after.LBDHist[i] - before.LBDHist[i]
	}
	return d
}

// pigeonhole encodes n+1 pigeons into n holes through the public API.
func pigeonhole(s *sat.Solver, pigeons, holes int) {
	x := func(p, h int) int { return p*holes + h }
	for i := 0; i < pigeons*holes; i++ {
		s.NewVar()
	}
	for p := 0; p < pigeons; p++ {
		lits := make([]sat.Lit, holes)
		for h := range lits {
			lits[h] = sat.PosLit(x(p, h))
		}
		s.AddClause(lits...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(sat.NegLit(x(p1, h)), sat.NegLit(x(p2, h)))
			}
		}
	}
}

// plantedCNF adds m random 3-clauses over n fresh variables, each
// satisfied by one hidden assignment.
func plantedCNF(s *sat.Solver, rng *rand.Rand, n, m int) {
	hidden := make([]bool, n)
	for v := range hidden {
		s.NewVar()
		hidden[v] = rng.Intn(2) == 0
	}
	for added := 0; added < m; {
		var cl [3]sat.Lit
		ok := false
		for j := range cl {
			v := rng.Intn(n)
			neg := rng.Intn(2) == 0
			cl[j] = sat.PosLit(v)
			if neg {
				cl[j] = sat.NegLit(v)
			}
			ok = ok || hidden[v] != neg
		}
		if ok {
			s.AddClause(cl[:]...)
			added++
		}
	}
}
