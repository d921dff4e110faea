package sat

import (
	"sync"
	"testing"
	"time"
)

// TestInterruptReturnsUnknown proves the named contract of Interrupt: a
// stopped solve returns Unknown, and the solver state is not corrupted —
// the very next Solve on the same instance runs to the correct verdict.
// The interrupt fires from inside the search via the export hook, so the
// test is deterministic: the first learned clause stops the solve.
func TestInterruptReturnsUnknown(t *testing.T) {
	s := New()
	pigeonhole(s, 7, 6)
	s.ExportLBD = 1 << 20 // export every learned clause
	s.Export = func([]Lit, int) { s.Interrupt() }
	if got := s.Solve(); got != Unknown {
		t.Fatalf("interrupted Solve() = %v, want Unknown", got)
	}
	if !s.Interrupted() {
		t.Fatalf("Interrupted() = false after interrupt")
	}
	// The flag clears on the next solve entry; with the hook gone the
	// same solver must finish the instance correctly.
	s.Export = nil
	s.ExportLBD = 0
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve() after interrupt = %v, want Unsat", got)
	}
}

// TestInterruptFromGoroutine stops a long-running solve from another
// goroutine, the way the parallel conquer driver does. The interrupter
// keeps setting the flag until the solve returns, so it cannot lose the
// race with the entry-time clear.
func TestInterruptFromGoroutine(t *testing.T) {
	s := New()
	pigeonhole(s, 10, 9) // far too hard to finish before the interrupt
	done := make(chan Status, 1)
	go func() { done <- s.Solve() }()
	for {
		s.Interrupt()
		select {
		case got := <-done:
			if got != Unknown {
				t.Fatalf("interrupted Solve() = %v, want Unknown", got)
			}
			return
		case <-time.After(time.Millisecond):
		}
	}
}

// TestImportClausesUnit checks that an imported unit clause constrains
// the next solve: importing ¬a forces a false in the model.
func TestImportClausesUnit(t *testing.T) {
	s := New()
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	s.ImportClauses([]SharedClause{{Lits: []Lit{NegLit(a)}, LBD: 1}})
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve() = %v, want Sat", got)
	}
	if s.Value(a) {
		t.Errorf("a = true, want false (forced by imported unit)")
	}
	if !s.Value(b) {
		t.Errorf("b = false, want true")
	}
}

// TestImportClausesConflict checks that contradictory imports refute the
// formula: {a} then {¬a} empties at level 0 and the solve is Unsat.
func TestImportClausesConflict(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.NewVar()
	s.ImportClauses([]SharedClause{
		{Lits: []Lit{PosLit(a)}, LBD: 1},
		{Lits: []Lit{NegLit(a)}, LBD: 1},
	})
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve() = %v, want Unsat", got)
	}
}

// TestImportClausesConcurrent hammers ImportClauses from several
// goroutines while a solve runs — the import queue is the only
// cross-goroutine channel into a searching solver, so this is the
// race-detector workout for it.
func TestImportClausesConcurrent(t *testing.T) {
	s := New()
	pigeonhole(s, 7, 6)
	extra := s.NewVar()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lit := PosLit(extra)
			if g%2 == 1 {
				lit = NegLit(extra)
			}
			for {
				select {
				case <-stop:
					return
				default:
					s.ImportClauses([]SharedClause{{Lits: []Lit{lit, PosLit(0)}, LBD: 2}})
				}
			}
		}(g)
	}
	got := s.Solve()
	close(stop)
	wg.Wait()
	if got != Unsat {
		t.Fatalf("Solve() = %v, want Unsat (imports are consistent with the formula)", got)
	}
}

// TestCloneIndependence checks that a clone and its original diverge
// freely: extra clauses on the clone do not leak back, and both solve to
// their own correct verdicts repeatedly.
func TestCloneIndependence(t *testing.T) {
	s := New()
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	s.AddClause(NegLit(a), PosLit(b))

	c := s.Clone()
	c.AddClause(NegLit(b)) // clone-only: makes the clone unsat
	if got := c.Solve(); got != Unsat {
		t.Fatalf("clone Solve() = %v, want Unsat", got)
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("original Solve() = %v, want Sat after clone diverged", got)
	}
	if !s.Value(b) {
		t.Errorf("original: b = false, want true")
	}
	// And the other direction: solving the original did not touch the
	// clone's refutation.
	if got := c.Solve(); got != Unsat {
		t.Fatalf("clone re-Solve() = %v, want Unsat", got)
	}
}

// TestTopActiveVars checks ranking candidates: level-0-fixed variables
// are excluded, the count is capped, and n ≤ 0 yields nothing.
func TestTopActiveVars(t *testing.T) {
	s := New()
	fixed := s.NewVar()
	free1 := s.NewVar()
	free2 := s.NewVar()
	s.AddClause(PosLit(fixed)) // unit: fixed at level 0
	s.AddClause(PosLit(free1), PosLit(free2))
	if got := s.TopActiveVars(0); got != nil {
		t.Fatalf("TopActiveVars(0) = %v, want nil", got)
	}
	got := s.TopActiveVars(10)
	for _, v := range got {
		if v == fixed {
			t.Fatalf("TopActiveVars included level-0-fixed var %d: %v", fixed, got)
		}
	}
	if len(got) != 2 {
		t.Fatalf("TopActiveVars(10) = %v, want the 2 free vars", got)
	}
	if got := s.TopActiveVars(1); len(got) != 1 {
		t.Fatalf("TopActiveVars(1) = %v, want 1 var", got)
	}
}

// TestExportLBDFilter checks the export gate: ExportLBD = 0 exports
// nothing, a permissive cutoff exports every learned clause within it.
func TestExportLBDFilter(t *testing.T) {
	s := New()
	pigeonhole(s, 6, 5)
	calls := 0
	s.Export = func(lits []Lit, lbd int) {
		calls++
		if len(lits) == 0 {
			t.Errorf("exported empty clause")
		}
		if lbd < 1 {
			t.Errorf("exported clause with LBD %d < 1", lbd)
		}
	}
	s.ExportLBD = 0
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve() = %v, want Unsat", got)
	}
	if calls != 0 {
		t.Fatalf("ExportLBD=0 exported %d clauses, want 0", calls)
	}

	s2 := New()
	pigeonhole(s2, 6, 5)
	exported := 0
	s2.Export = func(lits []Lit, lbd int) {
		exported++
		if lbd > s2.ExportLBD {
			t.Errorf("exported clause with LBD %d > cutoff %d", lbd, s2.ExportLBD)
		}
	}
	s2.ExportLBD = 1 << 20
	if got := s2.Solve(); got != Unsat {
		t.Fatalf("Solve() = %v, want Unsat", got)
	}
	if exported == 0 {
		t.Fatalf("permissive ExportLBD exported no clauses on a conflict-heavy instance")
	}
}
