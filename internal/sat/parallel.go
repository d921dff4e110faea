package sat

import (
	"math/rand"
	"sort"
)

// This file holds the concurrency surface of the solver: the per-solver
// stop flag (Interrupt), the thread-safe learned-clause import queue
// drained at restarts, activity-ranked variable selection for cube
// splitting, and Clone, which stamps out independent solver replicas
// sharing one variable numbering. Everything else about the solver is
// single-goroutine; these are the only entry points safe to call while a
// solve is running (Interrupt, ImportClauses) or that exist to set up
// parallel legs (Clone, TopActiveVars).

// SharedClause is a learned clause exchanged between solver replicas,
// tagged with the LBD it was learned at so the importer can slot it into
// the right clause-database tier.
type SharedClause struct {
	Lits []Lit
	LBD  int
}

// Interrupt asks the solver to stop: the running solve returns Unknown at
// its next budget check. It is safe to call from any goroutine. The flag
// is owned by this solver (Clone replicas each have their own) and clears
// on the next SolveAssuming entry, so an interrupted solver is
// immediately reusable.
func (s *Solver) Interrupt() { s.stop.Store(true) }

// Interrupted reports whether the solver has been asked to stop: Interrupt
// called since the last SolveAssuming entry, or the external flag installed
// by SetInterrupt raised. It is two atomic loads and no clock read, cheap
// enough for the search to poll on every decision and conflict.
func (s *Solver) Interrupted() bool {
	return s.stop.Load() || (s.interrupted != nil && s.interrupted.Load())
}

// ImportClauses queues learned clauses from a sibling replica for this
// solver to adopt. It is safe to call from any goroutine while the solver
// is searching; the queue is drained at the next restart, where the
// solver is at decision level 0 and attaching foreign clauses is sound.
// Literals are deep-copied, so the caller keeps ownership of cls.
func (s *Solver) ImportClauses(cls []SharedClause) {
	if len(cls) == 0 {
		return
	}
	s.importMu.Lock()
	for _, c := range cls {
		lits := make([]Lit, len(c.Lits))
		copy(lits, c.Lits)
		s.imports = append(s.imports, SharedClause{Lits: lits, LBD: c.LBD})
	}
	s.importMu.Unlock()
}

// drainImports adopts every queued import. Caller must be at decision
// level 0. Each clause is simplified against the level-0 assignment:
// satisfied clauses are dropped, false literals stripped. A clause that
// empties proves the formula unsat (imports derive from the shared clause
// database by resolution, never from the exporter's assumptions, so the
// refutation holds for the base formula); a unit is enqueued at level 0.
func (s *Solver) drainImports() {
	s.importMu.Lock()
	pending := s.imports
	s.imports = nil
	s.importMu.Unlock()
	if len(pending) == 0 || !s.ok {
		return
	}
next:
	for _, imp := range pending {
		out := imp.Lits[:0]
		for _, l := range imp.Lits {
			switch s.litValue(l) {
			case lTrue:
				continue next
			case lFalse:
				continue
			}
			out = append(out, l)
		}
		switch len(out) {
		case 0:
			s.ok = false
			return
		case 1:
			if !s.enqueue(out[0], crefUndef) {
				s.ok = false
				return
			}
		default:
			lbd := imp.LBD
			if lbd > len(out) {
				lbd = len(out)
			}
			if lbd < 1 {
				lbd = 1
			}
			c := s.alloc(out, true)
			s.setLBD(c, int32(lbd))
			s.learnts = append(s.learnts, c)
			s.Stats.Learned++
			s.attach(c)
		}
	}
	if s.propagate() != crefUndef {
		s.ok = false
	}
}

// TopActiveVars returns up to n variable indices ranked by VSIDS
// activity, highest first (ties broken toward lower indices for
// determinism). Variables already fixed at level 0 are excluded — they
// are unusable as assumption literals. A probing solve warms the
// activities; on a fresh solver the ranking degenerates to the first n
// variables, which is still a valid split.
func (s *Solver) TopActiveVars(n int) []int {
	if n <= 0 {
		return nil
	}
	cand := make([]int, 0, len(s.vars))
	for v := range s.vars {
		if s.assigns[PosLit(v)] != lUndef && s.vars[v].level == 0 {
			continue
		}
		cand = append(cand, v)
	}
	sort.SliceStable(cand, func(i, j int) bool {
		ai, aj := s.act[cand[i]], s.act[cand[j]]
		if ai != aj {
			return ai > aj
		}
		return cand[i] < cand[j]
	})
	if len(cand) > n {
		cand = cand[:n]
	}
	out := make([]int, len(cand))
	copy(out, cand)
	return out
}

// Clone returns an independent replica of the solver: same variables,
// clauses, learned clauses, activities and saved phases, but its own
// arena, watch lists, trail, heap, RNG and budgets. Replicas share
// nothing mutable, so they may solve concurrently; they share the
// variable numbering, which is what makes clause exchange between them
// (Export → ImportClauses) meaningful. The clone starts at decision
// level 0 with zeroed Stats and no budget caps; the original is
// backtracked to level 0 as a side effect. The external interrupt
// pointer (SetInterrupt) is shared — it means "stop everything" — while
// the per-solver Interrupt flag is not.
func (s *Solver) Clone() *Solver {
	s.backtrack(0)
	n := &Solver{
		arena:       append([]Lit(nil), s.arena...),
		clauses:     append([]cref(nil), s.clauses...),
		learnts:     append([]cref(nil), s.learnts...),
		watches:     make([][]watcher, len(s.watches)),
		vars:        append([]varInfo(nil), s.vars...),
		act:         append([]float64(nil), s.act...),
		heapIdx:     append([]int32(nil), s.heapIdx...),
		flags:       append([]varFlags(nil), s.flags...),
		assigns:     append([]lbool(nil), s.assigns...),
		trail:       append([]Lit(nil), s.trail...),
		qhead:       s.qhead,
		varInc:      s.varInc,
		claInc:      s.claInc,
		claDecay:    s.claDecay,
		ok:          s.ok,
		rng:         rand.New(rand.NewSource(1)),
		ReduceFirst: s.ReduceFirst,
		Deadline:    s.Deadline,
		interrupted: s.interrupted,
		seen:        make([]bool, len(s.seen)),
	}
	for i, ws := range s.watches {
		n.watches[i] = append(n.carveWatches(), ws...)
	}
	n.order.s = n
	n.order.heap = append([]int32(nil), s.order.heap...)
	return n
}
