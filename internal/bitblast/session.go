// Incremental encoding sessions for width refinement (§6.2 of the
// paper). A Session keeps one sat.Solver and the structural parts of the
// encoding alive across refinement rounds, so re-solving the same
// constraint at a doubled width reuses — instead of rebuilds — everything
// the rounds have in common:
//
//   - Constraint variables are persistent per name: the w low bits of a
//     2w-bit round-N+1 vector are the very literals round N used, so the
//     solver's saved phases and VSIDS activity keep steering the search.
//   - The structural gate cache every Blaster hashes its gates through
//     (and2/xor2/mux keyed by operand literals) is the session's, so it
//     outlives the round: the low halves of adders, comparators and
//     multipliers over shared bits encode once, in whichever round first
//     needs them.
//   - Gate definition clauses introduce only fresh output literals, so
//     they are sound at every width and are added unguarded, permanently.
//
// What is NOT shared is each round's assertions: a round's top-level
// clauses encode w-bit wraparound semantics and overflow guards that a
// wider round deliberately relaxes. Every assertion clause therefore
// carries the round's activation literal a_N (clause ¬a_N ∨ C), the
// round solves under SolveAssuming(a_N), and starting round N+1 asserts
// ¬a_N permanently, disabling round N's assertions and every learned
// clause that depended on them (conflict analysis keeps ¬a_N in such
// resolvents because a_N is a decision). Learned clauses derived purely
// from shared structure survive with no guard and keep pruning.
//
// Each round is preprocessed once it is encoded, as bitblast.Solve
// preprocesses a one-shot CNF: retirement only adds the unit ¬a_N and
// sweeps level 0, and one Preprocess call (subsumption and
// self-subsuming resolution) then runs over the retained clauses and the
// new round together before the search.
package bitblast

import (
	"staub/internal/eval"
	"staub/internal/sat"
	"staub/internal/smt"
)

// SessionStats counts what an incremental session reused and rebuilt.
type SessionStats struct {
	// Rounds is the number of Encode calls.
	Rounds int
	// GateHits and GateMisses count structural gate-cache lookups; a hit
	// is a gate some earlier point of the session already encoded, and
	// every miss encodes one gate.
	GateHits, GateMisses int64
	// VarsReused counts constraint-variable bit literals resolved to an
	// earlier round's literals instead of freshly allocated.
	VarsReused int64
	// ClausesRetained accumulates, over every round after the first, the
	// number of clauses (problem + learned) that survive retirement's
	// level-0 sweep: carried into the round alive rather than re-derived
	// from scratch.
	ClausesRetained int64
}

// Session is an incremental bit-blasting session over one SAT solver.
// Encode each refinement round's bounded constraint, then Solve; state
// persists until the session is dropped.
type Session struct {
	s        *sat.Solver
	tLit     sat.Lit
	gates    *gateCache
	varBits  map[string][]sat.Lit
	varBools map[string]sat.Lit
	act      sat.Lit // current round's activation literal
	started  bool
	cur      *Blaster
	stats    SessionStats
}

// NewSession returns an incremental session encoding into s.
func NewSession(s *sat.Solver) *Session {
	se := &Session{
		s:        s,
		gates:    newGateCache(),
		varBits:  map[string][]sat.Lit{},
		varBools: map[string]sat.Lit{},
	}
	se.tLit = sat.PosLit(s.NewVar())
	s.AddClause(se.tLit)
	return se
}

// Solver returns the underlying SAT solver (for budget and interrupt
// configuration).
func (se *Session) Solver() *sat.Solver { return se.s }

// Stats reports reuse counters accumulated so far.
func (se *Session) Stats() SessionStats {
	st := se.stats
	st.GateHits, st.GateMisses = se.gates.hits, int64(len(se.gates.m))
	return st
}

// MemoryBytes estimates the heap retained by the session's own caches —
// the structural gate cache and the per-name variable bit maps — on top
// of whatever the underlying solver holds (see sat.Solver.MemoryBytes).
// Like the solver figure it is an accounting estimate for session
// budgets, not an exact heap profile.
func (se *Session) MemoryBytes() int64 {
	n := int64(len(se.gates.m)) * 48 // gateKey + literal + bucket overhead
	for name, bits := range se.varBits {
		n += int64(len(name)) + int64(cap(bits))*4 + 48
	}
	n += int64(len(se.varBools)) * 56
	return n
}

// Encode starts a new round: the previous round (if any) is retired by
// permanently falsifying its activation literal and sweeping the clauses
// that died with it, then c is encoded under a fresh activation literal
// and the database is preprocessed.
func (se *Session) Encode(c *smt.Constraint) error {
	if se.started {
		se.s.AddClause(se.act.Not())
		se.s.Simplify()
		se.stats.ClausesRetained += int64(se.s.NumClauses() + se.s.NumLearnts())
	}
	se.act = sat.PosLit(se.s.NewVar())
	se.started = true
	se.stats.Rounds++
	b := &Blaster{
		s:     se.s,
		bits:  map[*smt.Term][]sat.Lit{},
		bools: map[*smt.Term]sat.Lit{},
		tLit:  se.tLit,
		gates: se.gates,
		sess:  se,
	}
	se.cur = b
	if err := b.Encode(c); err != nil {
		return err
	}
	// Subsumption and self-subsuming resolution preserve equivalence, so
	// they are safe against later rounds re-touching any variable and
	// against retiring this round's guard.
	se.s.Preprocess()
	return nil
}

// Solve decides the current round's constraint under its activation
// assumption.
func (se *Session) Solve() sat.Status {
	return se.s.SolveAssuming(se.act)
}

// Model extracts the current round's model after a Sat result.
func (se *Session) Model() eval.Assignment {
	return se.cur.Model()
}
