// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver with two-literal watching, blocking literals, specialized binary
// clause propagation, first-UIP conflict analysis, VSIDS variable
// activity, phase saving, Luby restarts, glue-based (LBD) learned-clause
// management with aggressive DB reduction on a geometric schedule, and a
// pre/inprocessing pass (subsumption, self-subsuming resolution, bounded
// variable elimination — see preprocess.go). It is the backend for
// package bitblast, giving this repository the standard production
// pipeline for deciding the bounded constraints STAUB produces.
//
// Clauses live in a single flat arena ([]Lit) addressed by integer
// references (cref), MiniSat-allocator style: a clause is a three-word
// header (size+flags, LBD, activity bits) followed by its literals.
// Compared to per-clause heap objects this halves the cache misses per
// clause visit (header and literals share one allocation), shrinks a
// watcher to eight pointer-free bytes (halving watch-list bandwidth in
// propagate, the hottest loop), and removes millions of pointers from
// the GC graph — no write barriers on watcher writes, near-zero scan
// cost. Freed clauses leave holes that compactArena reclaims at level-0
// maintenance points (Simplify, Preprocess).
package sat

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Lit is a literal: variable index v (from NewVar) with polarity encoded
// as 2v for the positive and 2v+1 for the negative literal.
type Lit int32

// PosLit returns the positive literal of variable v.
func PosLit(v int) Lit { return Lit(2 * v) }

// NegLit returns the negative literal of variable v.
func NegLit(v int) Lit { return Lit(2*v + 1) }

// Not returns the complement literal.
func (l Lit) Not() Lit { return l ^ 1 }

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Sign reports whether the literal is negative.
func (l Lit) Sign() bool { return l&1 == 1 }

// Status is a solve outcome.
type Status int

// Solve outcomes.
const (
	// Unknown means the budget or deadline expired, or solving was
	// interrupted.
	Unknown Status = iota
	// Sat means a satisfying assignment was found.
	Sat
	// Unsat means the formula was proved unsatisfiable.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

// cref is a clause reference: the word index of the clause header in the
// solver's arena. crefUndef marks "no clause" (decision or assumption).
type cref int32

const crefUndef cref = -1

// Arena clause layout: header of hdrWords words at the cref, literals
// after it.
//
//	arena[c+0]  size<<flagBits | learnedFlag | protectFlag
//	arena[c+1]  LBD at learning time, updated on the fly (learnts)
//	arena[c+2]  activity (float32 bits)
//	arena[c+3:] the literals
const (
	hdrWords    = 3
	flagBits    = 2
	learnedFlag = 1
	// protectFlag grants one reduceDB reprieve; set when conflict
	// analysis observes the clause's LBD improving (the clause is pulling
	// its weight even if its original LBD was poor).
	protectFlag = 2
)

// glueLBD is the glue tier boundary: learned clauses with LBD at or below
// it are never evicted (they connect few decision levels and re-derive
// constantly if dropped).
const glueLBD = 2

func (s *Solver) clsSize(c cref) int     { return int(s.arena[c]) >> flagBits }
func (s *Solver) clsLearned(c cref) bool { return s.arena[c]&learnedFlag != 0 }
func (s *Solver) clsProtect(c cref) bool { return s.arena[c]&protectFlag != 0 }
func (s *Solver) setProtect(c cref, on bool) {
	if on {
		s.arena[c] |= protectFlag
	} else {
		s.arena[c] &^= protectFlag
	}
}
func (s *Solver) clsLBD(c cref) int32      { return int32(s.arena[c+1]) }
func (s *Solver) setLBD(c cref, lbd int32) { s.arena[c+1] = Lit(lbd) }
func (s *Solver) clsAct(c cref) float32    { return math.Float32frombits(uint32(s.arena[c+2])) }
func (s *Solver) setAct(c cref, a float32) { s.arena[c+2] = Lit(math.Float32bits(a)) }
func (s *Solver) setSize(c cref, n int) {
	const flagsMask = Lit(1<<flagBits - 1)
	s.arena[c] = Lit(n<<flagBits) | s.arena[c]&flagsMask
}

// clsLits returns the literal slice of clause c, aliasing the arena.
// Valid until the next arena allocation or compaction.
func (s *Solver) clsLits(c cref) []Lit {
	i := int(c) + hdrWords
	return s.arena[i : i+int(s.arena[c])>>flagBits]
}

// alloc appends a clause to the arena and returns its reference.
func (s *Solver) alloc(lits []Lit, learned bool) cref {
	c := cref(len(s.arena))
	meta := Lit(len(lits) << flagBits)
	if learned {
		meta |= learnedFlag
	}
	s.arena = append(s.arena, meta, 0, 0)
	s.arena = append(s.arena, lits...)
	return c
}

// watcher is one watch-list entry: eight bytes, no pointers. A negative
// cr marks a binary clause (the real reference is cr with the sign bit
// cleared): its blocker is the entire rest of the clause, so binary
// propagation and conflict detection never touch clause memory.
type watcher struct {
	cr      cref
	blocker Lit
}

const (
	watcherBin  = cref(-1) << 31
	watcherMask = ^watcherBin
)

type varData struct {
	level   int32
	reason  cref
	act     float64
	phase   bool // saved phase
	polInit bool
	elim    bool // removed by bounded variable elimination
	frozen  bool // exempt from variable elimination (see Freeze)
	heapIdx int32
}

// LBDBuckets is the size of the learning-time LBD histogram in Stats:
// buckets 0..LBDBuckets-2 count clauses of LBD 1..LBDBuckets-1, the last
// bucket everything larger.
const LBDBuckets = 8

// Stats records solver work counters.
type Stats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Restarts     int64
	Learned      int64
	// GlueLearned counts learned clauses arriving in the glue tier
	// (LBD ≤ glueLBD); these are kept forever.
	GlueLearned int64
	// LBDHist is the histogram of learning-time LBDs (see LBDBuckets).
	LBDHist [LBDBuckets]int64
	// Reductions counts reduceDB invocations, Deleted the learned
	// clauses they evicted.
	Reductions int64
	Deleted    int64
	// Subsumed, Strengthened and Eliminated count preprocessing effects:
	// clauses removed by subsumption, literals removed by self-subsuming
	// resolution, and variables removed by bounded elimination.
	Subsumed     int64
	Strengthened int64
	Eliminated   int64
}

// Solver is an incremental CDCL SAT solver: construct, add clauses, call
// Solve or SolveAssuming, then freely interleave further AddClause/NewVar
// calls with later solves. Learned clauses, VSIDS activity and saved
// phases are retained across calls, so repeated solves resume where the
// previous search left off rather than starting from scratch.
type Solver struct {
	arena   []Lit // clause storage (see layout above)
	clauses []cref
	learnts []cref
	watches [][]watcher // indexed by literal

	vars     []varData
	assigns  []lbool // per-literal truth value, indexed by Lit
	trail    []Lit
	trailLim []int
	qhead    int

	order  varHeap
	varInc float64
	// VarDecay is the VSIDS activity decay factor in (0, 1); lower values
	// focus the search harder on recent conflicts. Set before Solve.
	VarDecay float64
	claInc   float64
	claDecay float64

	ok        bool    // false once a top-level conflict is found
	maxLearnt float64 // adaptive learned-clause cap (DBActivity policy)
	rng       *rand.Rand

	// DB selects the learned-clause management policy. The default,
	// DBGlue, is the modern LBD-based policy; DBActivity is the previous
	// activity-halving policy, kept as the differential-testing and
	// benchmarking baseline. Set before the first Solve.
	DB ClauseDB
	// ReduceFirst is the conflict count before the first DB reduction
	// under DBGlue (default 2000); each reduction then grows the interval
	// geometrically. Tests lower it to exercise the reduction path.
	ReduceFirst int64
	// reduceInterval and nextReduce drive the geometric DBGlue schedule.
	reduceInterval int64
	nextReduce     int64

	// lbdSeen/lbdTick stamp decision levels during LBD computation so one
	// pass over a clause counts its distinct levels without clearing.
	lbdSeen []int64
	lbdTick int64

	// elimStack records bounded variable elimination in order, for model
	// reconstruction after Sat; elimValue holds reconstructed values.
	elimStack []elimEntry
	elimValue []bool

	// RandomFreq is the probability of a random branching decision in
	// [0, 1); a small positive value makes the search robust against
	// pathological activity orderings. Set before Solve.
	RandomFreq float64

	// Budget controls.
	Deadline time.Time // zero means none
	// ConflictCap bounds total conflicts; 0 means unlimited.
	ConflictCap int64
	// PropagationCap bounds total propagations — a deterministic work
	// budget that, unlike Deadline, gives identical outcomes across runs
	// and machines. 0 means unlimited.
	PropagationCap int64
	interrupted    *atomic.Bool // optional external interrupt

	// stop is the solver-owned cancellation flag set by Interrupt. Unlike
	// the shared interrupted pointer it belongs to this solver alone and
	// is cleared on entry to SolveAssuming, so a stopped solve returns
	// Unknown and the solver is immediately reusable for the next call.
	stop atomic.Bool

	// importMu guards imports: learned clauses queued by ImportClauses
	// from concurrently running sibling solvers, drained at restarts
	// (decision level 0) where attaching foreign clauses is sound.
	importMu sync.Mutex
	imports  []SharedClause

	// Export, when non-nil, receives every learned clause whose LBD is at
	// most ExportLBD, called from the solving goroutine at learning time.
	// The literal slice is freshly allocated and owned by the callee.
	// Learned units export with LBD 1, so ExportLBD ≥ 1 includes them and
	// ExportLBD = 0 disables export entirely.
	Export func(lits []Lit, lbd int)
	// ExportLBD is the glue cutoff for Export (0 disables export).
	ExportLBD int

	Stats Stats

	seen     []bool
	analyzeT []Lit

	// assumptions holds the literals of the current SolveAssuming call;
	// each occupies its own decision level below all search decisions.
	assumptions []Lit
	// failed is the subset of assumptions responsible for the last
	// assumption-level Unsat (see FailedAssumptions).
	failed []Lit
}

// ClauseDB selects a learned-clause management policy.
type ClauseDB int

// Clause-management policies.
const (
	// DBGlue (the default) computes the literal block distance of every
	// learned clause, protects the glue tier (LBD ≤ 2) and binary clauses
	// forever, and aggressively halves the remainder — worst LBD first —
	// on a geometrically growing conflict schedule.
	DBGlue ClauseDB = iota
	// DBActivity is the pre-LBD policy: drop the less active half
	// whenever the DB outgrows an adaptive cap. It is retained as the
	// baseline the differential harness and scripts/satbench compare
	// DBGlue against.
	DBActivity
)

// New returns an empty solver.
func New() *Solver {
	s := &Solver{
		varInc:      1,
		VarDecay:    0.8,
		claInc:      1,
		claDecay:    0.999,
		ok:          true,
		RandomFreq:  0.02,
		ReduceFirst: 2000,
		rng:         rand.New(rand.NewSource(1)),
	}
	s.order.s = s
	return s
}

// SetInterrupt installs an external interrupt flag; when it becomes true
// the solver returns Unknown at the next check.
func (s *Solver) SetInterrupt(flag *atomic.Bool) { s.interrupted = flag }

// NumVars returns the number of variables created.
func (s *Solver) NumVars() int { return len(s.vars) }

// NumClauses returns the number of problem clauses currently attached
// (unit clauses become level-0 assignments and are not counted).
func (s *Solver) NumClauses() int { return len(s.clauses) }

// NumLearnts returns the number of learned clauses currently retained.
func (s *Solver) NumLearnts() int { return len(s.learnts) }

// MemoryBytes estimates the solver's retained heap: the clause arena,
// watch lists, per-variable bookkeeping, and the clause reference lists.
// It is an accounting figure for session memory budgets — capacity-based
// where capacity is what the GC actually holds (a popped arena still
// pins its backing array), and deliberately ignoring small fixed-size
// fields. It must stay cheap: callers invoke it after every check.
func (s *Solver) MemoryBytes() int64 {
	n := int64(cap(s.arena)) * 4
	for i := range s.watches {
		n += int64(cap(s.watches[i])) * 8 // watcher = {cref, blocker}
	}
	n += int64(len(s.vars)) * 48 // varData + assigns + heap/order share
	n += int64(cap(s.clauses)+cap(s.learnts)) * 4
	n += int64(cap(s.trail)) * 4
	return n
}

// compactArena rewrites the arena with only the clauses reachable from
// the problem and learnt lists, remapping both lists in place. Callers
// must have cleared every trail reason (level 0 only) and must rebuild
// the watch lists afterwards.
func (s *Solver) compactArena() {
	na := make([]Lit, 0, len(s.arena))
	move := func(cs []cref) {
		for i, c := range cs {
			nc := cref(len(na))
			end := int(c) + hdrWords + s.clsSize(c)
			na = append(na, s.arena[c:end]...)
			cs[i] = nc
		}
	}
	move(s.clauses)
	move(s.learnts)
	s.arena = na
}

// Simplify sweeps the clause database at decision level 0: clauses
// satisfied by a level-0 assignment are removed and literals falsified at
// level 0 are stripped. Incremental sessions call this after permanently
// falsifying a retired round's activation literal, which turns that
// round's guarded clauses into level-0-satisfied garbage; sweeping them
// keeps later rounds from paying propagation cost for dead state. The
// sweep ends with an arena compaction, reclaiming the holes left by
// deleted clauses.
func (s *Solver) Simplify() {
	if !s.ok {
		return
	}
	s.backtrack(0)
	if s.propagate() != crefUndef {
		s.ok = false
		return
	}
	// Level-0 assignments are permanent facts; their reason clauses are
	// never consulted again and must not dangle after removal below.
	for _, l := range s.trail {
		s.vars[l.Var()].reason = crefUndef
	}
	sweep := func(cs []cref) []cref {
		kept := cs[:0]
		for _, c := range cs {
			lits := s.clsLits(c)
			out := lits[:0]
			satisfied := false
			for _, l := range lits {
				switch s.litValue(l) {
				case lTrue:
					satisfied = true
				case lFalse:
					continue
				default:
					out = append(out, l)
				}
				if satisfied {
					break
				}
			}
			if satisfied {
				continue
			}
			s.setSize(c, len(out))
			switch len(out) {
			case 0:
				s.ok = false
			case 1:
				if !s.enqueue(out[0], crefUndef) {
					s.ok = false
				}
			default:
				kept = append(kept, c)
			}
		}
		return kept
	}
	s.clauses = sweep(s.clauses)
	s.learnts = sweep(s.learnts)
	s.compactArena()
	// Rebuild watches over the surviving clauses before propagating any
	// units the sweep enqueued: the old watcher lists still reference
	// removed and stripped clauses.
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	if !s.ok {
		return
	}
	for _, c := range s.clauses {
		s.attach(c)
	}
	for _, c := range s.learnts {
		s.attach(c)
	}
	if s.propagate() != crefUndef {
		s.ok = false
	}
}

// NewVar creates a new variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.vars)
	s.vars = append(s.vars, varData{heapIdx: -1, reason: crefUndef})
	s.assigns = append(s.assigns, lUndef, lUndef)
	s.watches = append(s.watches, nil, nil)
	s.seen = append(s.seen, false)
	s.elimValue = append(s.elimValue, false)
	s.order.push(v)
	return v
}

// Freeze exempts v from bounded variable elimination. Callers must freeze
// any variable they will later pass to SolveAssuming or mention in an
// AddClause after a Preprocess with variable elimination enabled:
// elimination only preserves equisatisfiability, so new constraints over
// an eliminated variable would be unsound.
func (s *Solver) Freeze(v int) { s.vars[v].frozen = true }

// AddClause adds a clause over existing variables. It returns false if the
// solver is already known unsatisfiable at the top level. The solver
// backtracks to decision level 0 first, so clauses may be added between
// solves without the previous model's assignment leaking into the
// level-0 simplification below.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	s.backtrack(0)
	// Simplify: drop duplicate and false literals, detect tautologies.
	out := lits[:0:0]
	for _, l := range lits {
		if s.vars[l.Var()].elim {
			panic("sat: AddClause over an eliminated variable (Freeze it before Preprocess)")
		}
		switch s.litValue(l) {
		case lTrue:
			return true // already satisfied at level 0
		case lFalse:
			continue
		}
		dup, taut := false, false
		for _, o := range out {
			if o == l {
				dup = true
				break
			}
			if o == l.Not() {
				taut = true
				break
			}
		}
		if taut {
			return true
		}
		if !dup {
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		if !s.enqueue(out[0], crefUndef) {
			s.ok = false
			return false
		}
		if s.propagate() != crefUndef {
			s.ok = false
			return false
		}
		return true
	}
	c := s.alloc(out, false)
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return true
}

func (s *Solver) attach(c cref) {
	lits := s.clsLits(c)
	wc := c
	if len(lits) == 2 {
		wc = c | watcherBin
	}
	s.watches[lits[0].Not()] = append(s.watches[lits[0].Not()], watcher{cr: wc, blocker: lits[1]})
	s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], watcher{cr: wc, blocker: lits[0]})
}

func (s *Solver) litValue(l Lit) lbool { return s.assigns[l] }

// Value returns the model value of variable v after a Sat result.
// Eliminated variables report the value reconstructed from their saved
// clauses (see Preprocess).
func (s *Solver) Value(v int) bool {
	if s.vars[v].elim {
		return s.elimValue[v]
	}
	return s.assigns[PosLit(v)] == lTrue
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) enqueue(l Lit, reason cref) bool {
	switch s.assigns[l] {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	s.assigns[l] = lTrue
	s.assigns[l^1] = lFalse
	vd := &s.vars[l.Var()]
	vd.level = int32(s.decisionLevel())
	vd.reason = reason
	s.trail = append(s.trail, l)
	return true
}

func (s *Solver) propagate() cref {
	assigns := s.assigns
	for s.qhead < len(s.trail) {
		l := s.trail[s.qhead]
		s.qhead++
		s.Stats.Propagations++
		ws := s.watches[l]
		j := 0
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			// Blocking literal: most watcher visits end on this cache line
			// without touching clause memory.
			if assigns[w.blocker] == lTrue {
				ws[j] = w
				j++
				continue
			}
			if w.cr < 0 {
				// Binary clause: the blocker is the entire rest of the
				// clause — propagate or conflict without touching it.
				ws[j] = w
				j++
				c := w.cr & watcherMask
				if assigns[w.blocker] == lFalse {
					for i++; i < len(ws); i++ {
						ws[j] = ws[i]
						j++
					}
					s.watches[l] = ws[:j]
					s.qhead = len(s.trail)
					return c
				}
				s.enqueue(w.blocker, c)
				continue
			}
			c := w.cr
			lits := s.clsLits(c)
			// Make sure the false literal is lits[1].
			if lits[0] == l.Not() {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && assigns[first] == lTrue {
				ws[j] = watcher{cr: c, blocker: first}
				j++
				continue
			}
			// Look for a new watch.
			found := false
			for k := 2; k < len(lits); k++ {
				if assigns[lits[k]] != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], watcher{cr: c, blocker: first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			ws[j] = watcher{cr: c, blocker: first}
			j++
			if assigns[first] == lFalse {
				// Conflict: restore remaining watchers and report.
				for i++; i < len(ws); i++ {
					ws[j] = ws[i]
					j++
				}
				s.watches[l] = ws[:j]
				s.qhead = len(s.trail)
				return c
			}
			s.enqueue(first, c)
		}
		s.watches[l] = ws[:j]
	}
	return crefUndef
}

func (s *Solver) analyze(confl cref) (learnt []Lit, backLevel int) {
	pathC := 0
	var p Lit = -1
	learnt = append(learnt, 0) // reserve slot for the asserting literal
	idx := len(s.trail) - 1

	for {
		if s.clsLearned(confl) {
			// A learned clause involved in a conflict is earning its keep:
			// bump its activity, and refresh its LBD on the fly — an
			// improved LBD promotes it (possibly into the glue tier) and
			// buys one reduceDB reprieve.
			s.bumpClause(confl)
			if lbd := s.clsLBD(confl); lbd > glueLBD {
				if nl := int32(s.clauseLBD(s.clsLits(confl))); nl < lbd {
					s.setLBD(confl, nl)
					s.setProtect(confl, true)
				}
			}
		}
		for _, q := range s.clsLits(confl) {
			if p != -1 && q == p {
				continue
			}
			v := q.Var()
			if !s.seen[v] && s.vars[v].level > 0 {
				s.seen[v] = true
				s.bumpVar(v)
				if int(s.vars[v].level) >= s.decisionLevel() {
					pathC++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Find the next literal to expand.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		pathC--
		if pathC == 0 {
			break
		}
		confl = s.vars[v].reason
	}
	learnt[0] = p.Not()

	// Minimize: remove literals implied by the rest (cheap
	// self-subsumption). learnt[:1:1] forces the appends below onto a
	// fresh backing array so the original set stays intact for the
	// redundancy checks.
	minimized := learnt[:1:1]
	for _, q := range learnt[1:] {
		r := s.vars[q.Var()].reason
		if r == crefUndef || !s.redundant(q, r, learnt) {
			minimized = append(minimized, q)
		}
	}
	for _, q := range learnt {
		s.seen[q.Var()] = false
	}
	learnt = minimized

	// Compute backtrack level: second-highest level in the clause.
	backLevel = 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.vars[learnt[i].Var()].level > s.vars[learnt[maxI].Var()].level {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		backLevel = int(s.vars[learnt[1].Var()].level)
	}
	return learnt, backLevel
}

// redundant reports whether literal q's reason clause is subsumed by the
// learnt set (all its other literals already appear or are level 0).
func (s *Solver) redundant(q Lit, r cref, learnt []Lit) bool {
	for _, l := range s.clsLits(r) {
		if l == q.Not() {
			continue
		}
		if s.vars[l.Var()].level == 0 {
			continue
		}
		found := false
		for _, m := range learnt[1:] {
			if m == l {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func (s *Solver) backtrack(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.Var()
		s.vars[v].phase = !l.Sign()
		s.vars[v].polInit = true
		s.assigns[l] = lUndef
		s.assigns[l^1] = lUndef
		s.vars[v].reason = crefUndef
		if s.vars[v].heapIdx < 0 {
			s.order.push(v)
		}
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v int) {
	s.vars[v].act += s.varInc
	if s.vars[v].act > 1e100 {
		for i := range s.vars {
			s.vars[i].act *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.vars[v].heapIdx >= 0 {
		s.order.up(int(s.vars[v].heapIdx))
	}
}

// clauseLBD counts the distinct nonzero decision levels among lits — the
// clause's literal block distance (Audemard & Simon). One stamped pass:
// no clearing, no allocation on the hot path.
func (s *Solver) clauseLBD(lits []Lit) int {
	if len(s.lbdSeen) <= len(s.vars) {
		grown := make([]int64, len(s.vars)+1)
		copy(grown, s.lbdSeen)
		s.lbdSeen = grown
	}
	s.lbdTick++
	n := 0
	for _, l := range lits {
		lv := s.vars[l.Var()].level
		if lv > 0 && s.lbdSeen[lv] != s.lbdTick {
			s.lbdSeen[lv] = s.lbdTick
			n++
		}
	}
	if n < 1 {
		n = 1
	}
	return n
}

func (s *Solver) bumpClause(c cref) {
	act := s.clsAct(c) + float32(s.claInc)
	s.setAct(c, act)
	if act > 1e20 {
		for _, l := range s.learnts {
			s.setAct(l, s.clsAct(l)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

// luby computes the Luby restart sequence value for index i (1-based).
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (1<<uint(k))-1 {
			return 1 << uint(k-1)
		}
		if i >= 1<<uint(k-1) && i < (1<<uint(k))-1 {
			return luby(i - (1 << uint(k-1)) + 1)
		}
	}
}

// Solve runs the CDCL loop and returns the outcome.
func (s *Solver) Solve() Status {
	return s.SolveAssuming()
}

// SolveAssuming solves under the given assumption literals: each is
// enqueued at its own decision level below all search decisions, so an
// Unsat verdict means "unsatisfiable under these assumptions" unless the
// formula is unsatisfiable outright. After such an Unsat,
// FailedAssumptions reports the subset of assumptions the refutation
// used. Clause, activity and phase state persist across calls, which is
// what makes repeated solves over a growing clause database cheap.
func (s *Solver) SolveAssuming(assumptions ...Lit) Status {
	if !s.ok {
		return Unsat
	}
	s.stop.Store(false)
	s.backtrack(0)
	s.drainImports()
	if !s.ok {
		return Unsat
	}
	for _, a := range assumptions {
		if s.vars[a.Var()].elim {
			panic("sat: assumption over an eliminated variable (Freeze it before Preprocess)")
		}
	}
	s.assumptions = append(s.assumptions[:0], assumptions...)
	s.failed = s.failed[:0]
	var restartN int64
	for {
		restartN++
		budget := 100 * luby(restartN)
		st := s.search(budget)
		if st == Sat {
			s.extendModel()
		}
		if st != Unknown {
			return st
		}
		if s.exhausted() {
			return Unknown
		}
		s.Stats.Restarts++
		s.backtrack(0)
		s.drainImports()
		if !s.ok {
			return Unsat
		}
	}
}

// FailedAssumptions returns the subset of the assumptions passed to the
// last SolveAssuming call that an Unsat verdict depended on (the final
// conflict clause, in assumption polarity). It is empty after Sat,
// Unknown, or an Unsat that holds without any assumptions.
func (s *Solver) FailedAssumptions() []Lit {
	out := make([]Lit, len(s.failed))
	copy(out, s.failed)
	return out
}

// analyzeFinal computes the failed-assumption core after assumption p was
// found false: the subset of earlier assumptions whose propagations
// falsified it. All decisions on the trail are assumption decisions when
// this runs, so every reason-less seen literal is itself an assumption.
func (s *Solver) analyzeFinal(p Lit) {
	s.failed = append(s.failed[:0], p)
	if s.decisionLevel() == 0 {
		return
	}
	s.seen[p.Var()] = true
	for i := len(s.trail) - 1; i >= s.trailLim[0]; i-- {
		l := s.trail[i]
		v := l.Var()
		if !s.seen[v] {
			continue
		}
		if r := s.vars[v].reason; r != crefUndef {
			for _, q := range s.clsLits(r) {
				if s.vars[q.Var()].level > 0 {
					s.seen[q.Var()] = true
				}
			}
		} else {
			s.failed = append(s.failed, l)
		}
		s.seen[v] = false
	}
	s.seen[p.Var()] = false
}

func (s *Solver) exhausted() bool {
	if s.ConflictCap > 0 && s.Stats.Conflicts >= s.ConflictCap {
		return true
	}
	if s.PropagationCap > 0 && s.Stats.Propagations >= s.PropagationCap {
		return true
	}
	if !s.Deadline.IsZero() && time.Now().After(s.Deadline) {
		return true
	}
	return s.Interrupted()
}

func (s *Solver) search(conflictBudget int64) Status {
	var conflicts int64
	for {
		confl := s.propagate()
		if confl != crefUndef {
			s.Stats.Conflicts++
			conflicts++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			learnt, backLevel := s.analyze(confl)
			s.backtrack(backLevel)
			if len(learnt) == 1 {
				if s.Export != nil && s.ExportLBD >= 1 {
					s.Export([]Lit{learnt[0]}, 1)
				}
				s.enqueue(learnt[0], crefUndef)
			} else {
				// Learning-time LBD: the non-asserting literals keep their
				// levels across the backjump; the asserting literal sat at
				// the conflict level, distinct from all of them, so it
				// contributes exactly one more block.
				lbd := s.clauseLBD(learnt[1:]) + 1
				c := s.alloc(learnt, true)
				s.setLBD(c, int32(lbd))
				s.learnts = append(s.learnts, c)
				s.Stats.Learned++
				bucket := lbd - 1
				if bucket >= LBDBuckets {
					bucket = LBDBuckets - 1
				}
				s.Stats.LBDHist[bucket]++
				if lbd <= glueLBD {
					s.Stats.GlueLearned++
				}
				if s.Export != nil && lbd <= s.ExportLBD {
					out := make([]Lit, len(learnt))
					copy(out, learnt)
					s.Export(out, lbd)
				}
				s.attach(c)
				s.bumpClause(c)
				s.enqueue(learnt[0], c)
			}
			s.varInc /= s.VarDecay
			s.claInc /= s.claDecay
			if conflicts >= conflictBudget {
				return Unknown
			}
			// The interrupt is polled on every conflict and decision; the
			// caps and the clock keep their sparse cadence, so an
			// uninterrupted search follows the same trajectory either way.
			if s.Interrupted() || conflicts%256 == 0 && s.exhausted() {
				return Unknown
			}
			s.maybeReduceDB()
			continue
		}
		// Decide. Re-check budgets periodically on conflict-free stretches,
		// where the conflicts%256 check above never fires.
		if s.Interrupted() || s.Stats.Decisions%1024 == 0 && s.exhausted() {
			return Unknown
		}
		// Establish pending assumptions before any search decision; each
		// occupies its own decision level so conflict analysis never
		// resolves an assumption away and restarts re-enqueue them here.
		if lvl := s.decisionLevel(); lvl < len(s.assumptions) {
			p := s.assumptions[lvl]
			switch s.litValue(p) {
			case lTrue:
				// Already implied: open an empty level to keep the
				// level↔assumption correspondence.
				s.trailLim = append(s.trailLim, len(s.trail))
			case lFalse:
				s.analyzeFinal(p)
				return Unsat
			default:
				s.trailLim = append(s.trailLim, len(s.trail))
				s.enqueue(p, crefUndef)
			}
			continue
		}
		v := s.pickBranchVar()
		if v < 0 {
			return Sat
		}
		s.Stats.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		phase := s.vars[v].phase
		if !s.vars[v].polInit {
			phase = false
		}
		if phase {
			s.enqueue(PosLit(v), crefUndef)
		} else {
			s.enqueue(NegLit(v), crefUndef)
		}
	}
}

func (s *Solver) pickBranchVar() int {
	// Eliminated variables are skipped everywhere: no problem clause
	// mentions them, and their model values come from reconstruction.
	if s.RandomFreq > 0 && s.rng.Float64() < s.RandomFreq && len(s.vars) > 0 {
		v := s.rng.Intn(len(s.vars))
		if s.assigns[PosLit(v)] == lUndef && !s.vars[v].elim {
			return v
		}
	}
	for s.order.size() > 0 {
		v := s.order.pop()
		if s.assigns[PosLit(v)] == lUndef && !s.vars[v].elim {
			return v
		}
	}
	return -1
}

// maybeReduceDB triggers learned-clause DB reduction per the selected
// policy: DBGlue reduces on a geometrically growing conflict schedule,
// DBActivity when the DB outgrows its adaptive size cap.
func (s *Solver) maybeReduceDB() {
	if s.DB == DBActivity {
		if s.maxLearnt == 0 {
			s.maxLearnt = float64(max(2000, len(s.clauses)/3))
		}
		if float64(len(s.learnts)) > s.maxLearnt {
			s.reduceDBActivity()
			s.maxLearnt *= 1.1
		}
		return
	}
	if s.nextReduce == 0 {
		s.reduceInterval = max(s.ReduceFirst, 1)
		s.nextReduce = s.Stats.Conflicts + s.reduceInterval
	}
	if s.Stats.Conflicts >= s.nextReduce {
		s.reduceDBGlue()
		// Geometric growth: each reduction buys a 1.1x longer run to the
		// next one, so reduction cost stays sublinear in total conflicts.
		s.reduceInterval += s.reduceInterval/10 + 1
		s.nextReduce = s.Stats.Conflicts + s.reduceInterval
	}
}

// reduceDBGlue evicts roughly half of the eligible learned clauses, worst
// LBD first (ties broken toward lower activity). Binary clauses, the glue
// tier (LBD ≤ glueLBD), reason clauses of the current trail, and clauses
// whose LBD improved since the last reduction (protect) are kept; protect
// is a one-reduction reprieve and is cleared here.
func (s *Solver) reduceDBGlue() {
	if f := chaosAt(siteReduce); f != 0 && s.chaosReduce(f) {
		return
	}
	s.Stats.Reductions++
	locked := map[cref]bool{}
	for _, l := range s.trail {
		if r := s.vars[l.Var()].reason; r != crefUndef && s.clsLearned(r) {
			locked[r] = true
		}
	}
	var cands []cref
	for _, c := range s.learnts {
		if s.clsSize(c) <= 2 || s.clsLBD(c) <= glueLBD || locked[c] {
			continue
		}
		if s.clsProtect(c) {
			s.setProtect(c, false)
			continue
		}
		cands = append(cands, c)
	}
	sort.Slice(cands, func(i, j int) bool {
		if li, lj := s.clsLBD(cands[i]), s.clsLBD(cands[j]); li != lj {
			return li > lj
		}
		return s.clsAct(cands[i]) < s.clsAct(cands[j])
	})
	s.dropLearnts(cands[:len(cands)/2])
}

// reduceDBActivity is the DBActivity policy: remove the less active half
// of the learned clauses (keeping reason clauses of the current trail).
func (s *Solver) reduceDBActivity() {
	if f := chaosAt(siteReduce); f != 0 && s.chaosReduce(f) {
		return
	}
	s.Stats.Reductions++
	locked := map[cref]bool{}
	for _, l := range s.trail {
		if r := s.vars[l.Var()].reason; r != crefUndef {
			locked[r] = true
		}
	}
	sorted := make([]cref, len(s.learnts))
	copy(sorted, s.learnts)
	sort.Slice(sorted, func(i, j int) bool { return s.clsAct(sorted[i]) < s.clsAct(sorted[j]) })
	var drop []cref
	for _, c := range sorted[:len(sorted)/2] {
		if !locked[c] && s.clsSize(c) > 2 {
			drop = append(drop, c)
		}
	}
	s.dropLearnts(drop)
}

// dropLearnts removes the given learned clauses and rebuilds the watch
// lists over the survivors. The arena slots leak until the next
// compaction point (Simplify or Preprocess).
func (s *Solver) dropLearnts(drop []cref) {
	if len(drop) == 0 {
		return
	}
	dropSet := make(map[cref]bool, len(drop))
	for _, c := range drop {
		dropSet[c] = true
	}
	kept := s.learnts[:0]
	for _, c := range s.learnts {
		if dropSet[c] {
			continue
		}
		kept = append(kept, c)
	}
	s.Stats.Deleted += int64(len(s.learnts) - len(kept))
	s.learnts = kept
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	for _, c := range s.clauses {
		s.attach(c)
	}
	for _, c := range s.learnts {
		s.attach(c)
	}
}

// varHeap is a max-heap over variable activity.
type varHeap struct {
	s    *Solver
	heap []int
}

func (h *varHeap) size() int { return len(h.heap) }

func (h *varHeap) less(i, j int) bool {
	return h.s.vars[h.heap[i]].act > h.s.vars[h.heap[j]].act
}

func (h *varHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.s.vars[h.heap[i]].heapIdx = int32(i)
	h.s.vars[h.heap[j]].heapIdx = int32(j)
}

func (h *varHeap) push(v int) {
	if h.s.vars[v].heapIdx >= 0 {
		return
	}
	h.heap = append(h.heap, v)
	i := len(h.heap) - 1
	h.s.vars[v].heapIdx = int32(i)
	h.up(i)
}

func (h *varHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *varHeap) down(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

func (h *varHeap) pop() int {
	v := h.heap[0]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.s.vars[v].heapIdx = -1
	if len(h.heap) > 0 {
		h.down(0)
	}
	return v
}
