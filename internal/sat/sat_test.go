package sat

import (
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
)

func TestTrivialSat(t *testing.T) {
	s := New()
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	s.AddClause(NegLit(a))
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve() = %v, want Sat", got)
	}
	if s.Value(a) {
		t.Errorf("a = true, want false")
	}
	if !s.Value(b) {
		t.Errorf("b = false, want true")
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(PosLit(a))
	if ok := s.AddClause(NegLit(a)); ok {
		t.Fatalf("AddClause(¬a) = true, want false (top-level conflict)")
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve() = %v, want Unsat", got)
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	s.NewVar()
	if ok := s.AddClause(); ok {
		t.Fatalf("empty AddClause() = true, want false")
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve() = %v, want Unsat", got)
	}
}

func TestTautologyIgnored(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(PosLit(a), NegLit(a))
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve() = %v, want Sat", got)
	}
}

// pigeonhole encodes PHP(n+1, n): n+1 pigeons into n holes, unsatisfiable.
func pigeonhole(s *Solver, pigeons, holes int) {
	vars := make([][]int, pigeons)
	for p := range vars {
		vars[p] = make([]int, holes)
		for h := range vars[p] {
			vars[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		lits := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			lits[h] = PosLit(vars[p][h])
		}
		s.AddClause(lits...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(NegLit(vars[p1][h]), NegLit(vars[p2][h]))
			}
		}
	}
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 6; n++ {
		s := New()
		pigeonhole(s, n+1, n)
		if got := s.Solve(); got != Unsat {
			t.Errorf("PHP(%d,%d): Solve() = %v, want Unsat", n+1, n, got)
		}
	}
}

func TestPigeonholeSat(t *testing.T) {
	s := New()
	pigeonhole(s, 5, 5) // equal pigeons and holes: satisfiable
	if got := s.Solve(); got != Sat {
		t.Fatalf("PHP(5,5): Solve() = %v, want Sat", got)
	}
}

// TestRandom3SATAgainstBruteForce cross-checks CDCL against exhaustive
// enumeration on small random instances.
func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		nVars := 4 + rng.Intn(6)
		nClauses := 3 + rng.Intn(30)
		clauses := make([][]Lit, nClauses)
		for i := range clauses {
			cl := make([]Lit, 3)
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

		want := bruteForceSat(nVars, clauses)

		s := New()
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		for _, cl := range clauses {
			s.AddClause(cl...)
		}
		got := s.Solve()
		wantStatus := Unsat
		if want {
			wantStatus = Sat
		}
		if got != wantStatus {
			t.Fatalf("iter %d: Solve() = %v, want %v", iter, got, wantStatus)
		}
		if got == Sat {
			// Check the model actually satisfies all clauses.
			for ci, cl := range clauses {
				ok := false
				for _, l := range cl {
					if s.Value(l.Var()) != l.Sign() {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("iter %d: model does not satisfy clause %d", iter, ci)
				}
			}
		}
	}
}

func bruteForceSat(nVars int, clauses [][]Lit) bool {
	for mask := 0; mask < 1<<nVars; mask++ {
		all := true
		for _, cl := range clauses {
			sat := false
			for _, l := range cl {
				val := mask>>(l.Var())&1 == 1
				if val != l.Sign() {
					sat = true
					break
				}
			}
			if !sat {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

func TestConflictCap(t *testing.T) {
	s := New()
	pigeonhole(s, 9, 8) // hard enough to exceed a tiny budget
	s.ConflictCap = 5
	if got := s.Solve(); got != Unknown {
		t.Fatalf("Solve() with tiny conflict cap = %v, want Unknown", got)
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

// --- CDCL modernization unit tests ---------------------------------------

// TestClauseLBD pins the LBD computation: distinct nonzero decision
// levels, duplicates counted once, level 0 excluded, floor of 1.
func TestClauseLBD(t *testing.T) {
	s := New()
	for i := 0; i < 6; i++ {
		s.NewVar()
	}
	// Assign fake levels directly; clauseLBD only reads vars[].level.
	levels := []int32{0, 1, 1, 2, 3, 3}
	for v, lv := range levels {
		s.vars[v].level = lv
	}
	cases := []struct {
		name string
		lits []Lit
		want int
	}{
		{"distinct levels", []Lit{PosLit(1), PosLit(3), PosLit(4)}, 3},
		{"duplicate levels collapse", []Lit{PosLit(1), NegLit(2), PosLit(4), NegLit(5)}, 2},
		{"level zero excluded", []Lit{PosLit(0), PosLit(1)}, 1},
		{"all level zero floors at one", []Lit{PosLit(0), NegLit(0)}, 1},
		{"empty floors at one", nil, 1},
		{"single level", []Lit{PosLit(3)}, 1},
	}
	for _, tc := range cases {
		if got := s.clauseLBD(tc.lits); got != tc.want {
			t.Errorf("%s: clauseLBD(%v) = %d, want %d", tc.name, tc.lits, got, tc.want)
		}
	}
	// Consecutive calls must not bleed stamps into each other.
	if got := s.clauseLBD([]Lit{PosLit(1)}); got != 1 {
		t.Errorf("stamp bleed: clauseLBD = %d, want 1", got)
	}
}

// TestReduceDBGluePolicy pins the eviction policy: glue and binary
// clauses survive, protected clauses survive once (flag cleared), and of
// the remaining candidates the worse-LBD half is evicted.
func TestReduceDBGluePolicy(t *testing.T) {
	s := New()
	for i := 0; i < 12; i++ {
		s.NewVar()
	}
	mk := func(lbd int32, protect bool, vs ...int) cref {
		lits := make([]Lit, len(vs))
		for i, v := range vs {
			lits[i] = PosLit(v)
		}
		c := s.alloc(lits, true)
		s.setLBD(c, lbd)
		s.setProtect(c, protect)
		s.learnts = append(s.learnts, c)
		s.attach(c)
		return c
	}
	glue := mk(2, false, 0, 1, 2)
	binary := mk(5, false, 3, 4)
	protected := mk(6, true, 5, 6, 7)
	worst := mk(7, false, 8, 9, 10)
	better := mk(3, false, 9, 10, 11)
	s.reduceDBGlue()
	kept := map[cref]bool{}
	for _, c := range s.learnts {
		kept[c] = true
	}
	if !kept[glue] || !kept[binary] || !kept[protected] {
		t.Fatalf("glue/binary/protected eviction: kept glue=%v binary=%v protected=%v, want all true",
			kept[glue], kept[binary], kept[protected])
	}
	if s.clsProtect(protected) {
		t.Error("protect flag not cleared by reduceDBGlue")
	}
	// Two candidates (worst, better) → one dropped, worst LBD first.
	if kept[worst] || !kept[better] {
		t.Fatalf("LBD ordering: kept worst(lbd=7)=%v better(lbd=3)=%v, want false/true", kept[worst], kept[better])
	}
	if s.Stats.Reductions != 1 || s.Stats.Deleted != 1 {
		t.Errorf("Stats = {Reductions:%d Deleted:%d}, want {1 1}", s.Stats.Reductions, s.Stats.Deleted)
	}
	// A second reduction now evicts the previously protected clause.
	s.reduceDBGlue()
	kept = map[cref]bool{}
	for _, c := range s.learnts {
		kept[c] = true
	}
	if kept[protected] {
		t.Error("protected clause survived a second reduction without re-protection")
	}
}

// TestBlockingLiterals pins the watcher layout: every watcher carries a
// blocker from the clause, and two-literal clauses are marked binary with
// the other literal as blocker, so propagation can decide them without
// touching clause memory.
func TestBlockingLiterals(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	s.AddClause(NegLit(a), PosLit(b), PosLit(c))
	checkWatcher := func(watched Lit, wantBinary bool, wantBlocker func(Lit) bool) {
		t.Helper()
		ws := s.watches[watched.Not()]
		if len(ws) != 1 {
			t.Fatalf("watches[%v]: %d watchers, want 1", watched.Not(), len(ws))
		}
		w := ws[0]
		if gotBinary := w.cr < 0; gotBinary != wantBinary {
			t.Errorf("watches[%v]: binary = %v, want %v", watched.Not(), gotBinary, wantBinary)
		}
		if !wantBlocker(w.blocker) {
			t.Errorf("watches[%v]: unexpected blocker %v", watched.Not(), w.blocker)
		}
	}
	checkWatcher(PosLit(a), true, func(l Lit) bool { return l == PosLit(b) })
	checkWatcher(NegLit(a), false, func(l Lit) bool { return l == PosLit(b) || l == PosLit(c) })
	// Functional check: binary propagation and conflict still work.
	if !s.AddClause(NegLit(b)) {
		t.Fatal("AddClause(¬b) failed")
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("Solve = %v, want Sat", st)
	}
	if !s.Value(a) || s.Value(b) {
		t.Fatalf("model a=%v b=%v, want a=true b=false", s.Value(a), s.Value(b))
	}
}

// TestReduceSchedule pins the geometric DB-reduction schedule and the
// restart counter on a hard instance.
func TestReduceSchedule(t *testing.T) {
	s := New()
	pigeonhole(s, 7, 6)
	s.ReduceFirst = 16
	if st := s.Solve(); st != Unsat {
		t.Fatalf("PHP(7,6) = %v, want Unsat", st)
	}
	if s.Stats.Reductions < 2 {
		t.Errorf("Reductions = %d, want ≥ 2 with ReduceFirst=16", s.Stats.Reductions)
	}
	if s.Stats.Deleted == 0 {
		t.Error("Deleted = 0, want > 0 after reductions")
	}
	if s.Stats.Restarts == 0 {
		t.Error("Restarts = 0, want > 0 on a hard instance")
	}
	// The interval grew geometrically: after n reductions it is at least
	// ReduceFirst and the next trigger is in the future.
	if s.reduceInterval < s.ReduceFirst {
		t.Errorf("reduceInterval = %d, want ≥ ReduceFirst (%d)", s.reduceInterval, s.ReduceFirst)
	}
	if s.nextReduce <= s.Stats.Conflicts-s.reduceInterval {
		t.Errorf("nextReduce = %d not ahead of schedule (conflicts %d, interval %d)",
			s.nextReduce, s.Stats.Conflicts, s.reduceInterval)
	}
}

// TestStatsAccounting pins exact counter values on tiny hand-built
// instances, and cross-field consistency on a hard one.
func TestStatsAccounting(t *testing.T) {
	t.Run("two-variable parity", func(t *testing.T) {
		// Full parity over {a,b}: one decision, conflict, unit learnt,
		// level-0 conflict — exactly 2 conflicts, 1 decision, 0 stored
		// learned clauses (unit learnts go straight to the trail),
		// regardless of which variable or phase is decided first.
		s := New()
		a, b := s.NewVar(), s.NewVar()
		s.AddClause(PosLit(a), PosLit(b))
		s.AddClause(PosLit(a), NegLit(b))
		s.AddClause(NegLit(a), PosLit(b))
		s.AddClause(NegLit(a), NegLit(b))
		if st := s.Solve(); st != Unsat {
			t.Fatalf("Solve = %v, want Unsat", st)
		}
		if s.Stats.Conflicts != 2 || s.Stats.Decisions != 1 || s.Stats.Learned != 0 {
			t.Errorf("Stats = {Conflicts:%d Decisions:%d Learned:%d}, want {2 1 0}",
				s.Stats.Conflicts, s.Stats.Decisions, s.Stats.Learned)
		}
		if s.Stats.Propagations == 0 {
			t.Error("Propagations = 0, want > 0")
		}
	})
	t.Run("one decision no conflict", func(t *testing.T) {
		s := New()
		a, b := s.NewVar(), s.NewVar()
		s.AddClause(PosLit(a), PosLit(b))
		if st := s.Solve(); st != Sat {
			t.Fatalf("Solve = %v, want Sat", st)
		}
		if s.Stats.Conflicts != 0 || s.Stats.Learned != 0 {
			t.Errorf("Stats = {Conflicts:%d Learned:%d}, want {0 0}", s.Stats.Conflicts, s.Stats.Learned)
		}
		if s.Stats.Decisions == 0 {
			t.Error("Decisions = 0, want > 0")
		}
	})
	t.Run("histogram consistency", func(t *testing.T) {
		s := New()
		pigeonhole(s, 7, 6)
		s.ReduceFirst = 32
		if st := s.Solve(); st != Unsat {
			t.Fatalf("PHP(7,6) = %v, want Unsat", st)
		}
		var histSum int64
		for _, n := range s.Stats.LBDHist {
			histSum += n
		}
		if histSum != s.Stats.Learned {
			t.Errorf("sum(LBDHist) = %d, want Learned = %d", histSum, s.Stats.Learned)
		}
		if s.Stats.GlueLearned > s.Stats.Learned {
			t.Errorf("GlueLearned %d > Learned %d", s.Stats.GlueLearned, s.Stats.Learned)
		}
		if s.Stats.GlueLearned != s.Stats.LBDHist[0]+s.Stats.LBDHist[1] {
			t.Errorf("GlueLearned = %d, want LBDHist[0]+LBDHist[1] = %d",
				s.Stats.GlueLearned, s.Stats.LBDHist[0]+s.Stats.LBDHist[1])
		}
		if s.Stats.Deleted > s.Stats.Learned {
			t.Errorf("Deleted %d > Learned %d", s.Stats.Deleted, s.Stats.Learned)
		}
	})
}

// TestPreprocessInterruptStopsSubsumption: a raised interrupt cuts
// subsumption short, and the database it leaves still decides the same.
func TestPreprocessInterruptStopsSubsumption(t *testing.T) {
	build := func() *Solver {
		s := New()
		a := s.NewVar()
		for i := 0; i < 600; i++ {
			b, c := s.NewVar(), s.NewVar()
			s.AddClause(PosLit(a), PosLit(b))
			s.AddClause(PosLit(a), PosLit(b), PosLit(c)) // subsumed
		}
		return s
	}
	full := build()
	full.Preprocess()
	if full.Stats.Subsumed != 600 {
		t.Fatalf("uninterrupted Subsumed = %d, want 600", full.Stats.Subsumed)
	}
	var stop atomic.Bool
	stop.Store(true)
	cut := build()
	cut.SetInterrupt(&stop)
	cut.Preprocess()
	if cut.Stats.Subsumed != 0 || cut.NumClauses() != 1200 {
		t.Fatalf("interrupted Preprocess: Subsumed = %d, %d clauses; want 0 and 1200",
			cut.Stats.Subsumed, cut.NumClauses())
	}
	cut.SetInterrupt(nil)
	if got, want := cut.Solve(), full.Solve(); got != want || got != Sat {
		t.Fatalf("after interrupted Preprocess Solve = %v, uninterrupted %v, want sat", got, want)
	}
}

// TestPreprocessCounters pins exact subsumption and self-subsumption
// accounting on hand-built databases.
func TestPreprocessCounters(t *testing.T) {
	t.Run("subsumption", func(t *testing.T) {
		s := New()
		a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
		s.AddClause(PosLit(a), PosLit(b))
		s.AddClause(PosLit(a), PosLit(b), PosLit(c))
		s.Preprocess()
		if s.Stats.Subsumed != 1 {
			t.Errorf("Subsumed = %d, want 1", s.Stats.Subsumed)
		}
		if n := s.NumClauses(); n != 1 {
			t.Errorf("NumClauses = %d, want 1", n)
		}
	})
	t.Run("self-subsuming resolution", func(t *testing.T) {
		s := New()
		a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
		s.AddClause(PosLit(a), PosLit(b))
		s.AddClause(NegLit(a), PosLit(b), PosLit(c))
		s.Preprocess()
		if s.Stats.Strengthened != 1 {
			t.Errorf("Strengthened = %d, want 1", s.Stats.Strengthened)
		}
		// (¬a∨b∨c) strengthens to (b∨c); both clauses remain.
		if n := s.NumClauses(); n != 2 {
			t.Errorf("NumClauses = %d, want 2", n)
		}
	})
	t.Run("strengthen to unit fixes the literal", func(t *testing.T) {
		s := New()
		a, b := s.NewVar(), s.NewVar()
		s.AddClause(PosLit(a), PosLit(b))
		s.AddClause(NegLit(a), PosLit(b))
		s.Preprocess()
		if s.Stats.Strengthened != 1 {
			t.Errorf("Strengthened = %d, want 1", s.Stats.Strengthened)
		}
		if st := s.Solve(); st != Sat {
			t.Fatalf("Solve = %v, want Sat", st)
		}
		if !s.Value(b) {
			t.Error("b not fixed true by unit promotion")
		}
	})
}

// TestRecursiveMinimization pins the minimizer on a hand-built implication
// graph. Level 1 decides a, which implies b through (¬a ∨ b) and c through
// (¬b ∨ c); level 2 decides e, which with a and c conflicts through
// (¬e ∨ ¬a ∨ f) and (¬e ∨ ¬c ∨ ¬f). The first-UIP clause is (¬e ∨ ¬a ∨ ¬c).
// The one-level test keeps ¬c, since c's reason holds ¬b and b is not in
// the clause; the recursive test follows b back to a, which is, and drops
// ¬c.
func TestRecursiveMinimization(t *testing.T) {
	s := New()
	a, b, c, e, f := s.NewVar(), s.NewVar(), s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(NegLit(a), PosLit(b))
	s.AddClause(NegLit(b), PosLit(c))
	s.AddClause(NegLit(e), NegLit(a), PosLit(f))
	s.AddClause(NegLit(e), NegLit(c), NegLit(f))
	decide := func(l Lit) cref {
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(l, crefUndef)
		return s.propagate()
	}
	if confl := decide(PosLit(a)); confl != crefUndef {
		t.Fatal("deciding a conflicts, want b and c implied")
	}
	confl := decide(PosLit(e))
	if confl == crefUndef {
		t.Fatal("deciding e does not conflict")
	}
	learnt, back := s.analyze(confl)
	if want := []Lit{NegLit(e), NegLit(a)}; !slices.Equal(learnt, want) {
		t.Fatalf("learnt = %v, want %v (¬c implied by ¬a through b)", learnt, want)
	}
	if back != 1 {
		t.Errorf("backjump level = %d, want 1", back)
	}
	if v := slices.Index(s.seen, true); v >= 0 {
		t.Errorf("variable %d still marked seen after analyze", v)
	}
}

// TestAnalyzeClearsSeen checks that every seen mark the minimizer sets is
// cleared before the learnt clause leaves analyze, over seeded random
// 3-SAT solves: Export runs right after each analyze, so it scans the
// marks.
func TestAnalyzeClearsSeen(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	learnt := 0
	for iter := 0; iter < 20; iter++ {
		s := buildSolver(100, rand3SAT(rng, 100))
		s.ExportLBD = math.MaxInt
		s.Export = func([]Lit, int) {
			learnt++
			if v := slices.Index(s.seen, true); v >= 0 {
				t.Fatalf("iter %d: variable %d still marked seen after analyze", iter, v)
			}
		}
		s.Solve()
	}
	if learnt < 1000 {
		t.Fatalf("%d clauses learnt over the solves, want ≥ 1000", learnt)
	}
}
