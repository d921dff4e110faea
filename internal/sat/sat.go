// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver with two-literal watching, blocking literals, specialized binary
// clause propagation, first-UIP conflict analysis with recursive
// learnt-clause minimization (Sörensson & Biere), VSIDS variable
// activity, phase saving, Luby restarts, glue-based (LBD) learned-clause
// management with aggressive DB reduction on a geometric schedule, and a
// pre/inprocessing pass (subsumption and self-subsuming resolution — see
// preprocess.go). It is the backend for package bitblast, giving this
// repository the standard production pipeline for deciding the bounded
// constraints STAUB produces.
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
//
// Per-variable state is split by access pattern: the {level, reason}
// pair that propagation, conflict analysis and backtracking touch is
// eight bytes a variable, VSIDS reads a dense activity array and a
// heap-position array, and the saved phase, which propagation never
// reads, sits in an array of its own. Each literal's watch list starts
// with watchInit slots carved from a shared block of watchBlock
// watchers, so a formula costs one allocation per block instead of a
// list grown from nil per literal. The trade-off is
// memory: a list that outgrows its slots moves to an array of its own,
// and the slots it leaves are held with their block until the solver is
// dropped. AddClause and conflict analysis work in buffers reused across
// calls, and the arrays a formula builds one element at a time double
// when they move (see grow).
package sat

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
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
//	arena[c+0]  size<<flagBits | learnedFlag | protectFlag | deletedFlag
//	arena[c+1]  LBD at learning time, updated on the fly (learnts)
//	arena[c+2]  activity (float32 bits)
//	arena[c+3:] the literals
const (
	hdrWords    = 3
	flagBits    = 3
	learnedFlag = 1
	// protectFlag grants one reduceDB reprieve; set when conflict
	// analysis observes the clause's LBD improving (the clause is pulling
	// its weight even if its original LBD was poor).
	protectFlag = 2
	// deletedFlag marks a learned clause dropLearnts is removing.
	deletedFlag = 4
)

// varDecay is the VSIDS activity decay factor: each conflict divides the
// bump increment by it, so lower values focus the search harder on recent
// conflicts.
const varDecay = 0.8

// randomFreq is the probability of a random branching decision; a small
// positive value makes the search robust against pathological activity
// orderings.
const randomFreq = 0.02

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
	s.arena = append(grow(s.arena, hdrWords+len(lits)), meta, 0, 0)
	s.arena = append(s.arena, lits...)
	return c
}

// grow returns xs with room for n more elements, doubling its capacity
// when it has to move. Past 256 elements append grows by about 1.25x, so
// an array built one element at a time allocates some five times its
// final size and copies four; doubling allocates about two and copies
// one.
func grow[T any](xs []T, n int) []T {
	if len(xs)+n <= cap(xs) {
		return xs
	}
	out := make([]T, len(xs), max(2*cap(xs), len(xs)+n))
	copy(out, xs)
	return out
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

// watchInit is the watch capacity each literal starts with, carved from
// a shared block of watchBlock watchers (see carveWatches).
const (
	watchInit  = 4
	watchBlock = 2048
)

// varInfo is the per-variable state propagation, conflict analysis and
// backtracking read and write: eight bytes, eight variables a cache line.
type varInfo struct {
	level  int32
	reason cref
}

// varFlags are a variable's booleans that propagation never reads.
type varFlags struct {
	phase   bool // saved phase
	polInit bool
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
	// Subsumed and Strengthened count preprocessing effects: clauses
	// removed by subsumption and literals removed by self-subsuming
	// resolution.
	Subsumed     int64
	Strengthened int64
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
	// watchSlab is the uncarved tail of the current watch block.
	watchSlab []watcher

	// Per-variable state, one array per access pattern.
	vars    []varInfo
	act     []float64 // VSIDS activity
	heapIdx []int32   // position in order.heap, -1 when absent
	flags   []varFlags

	assigns  []lbool // per-literal truth value, indexed by Lit
	trail    []Lit
	trailLim []int
	qhead    int

	order    varHeap
	varInc   float64
	claInc   float64
	claDecay float64

	ok  bool // false once a top-level conflict is found
	rng *rand.Rand

	// ReduceFirst is the conflict count before the first learned-clause
	// DB reduction (default 2000); each reduction then grows the interval
	// geometrically. Tests lower it to exercise the reduction path.
	ReduceFirst int64
	// reduceInterval and nextReduce drive the geometric reduction schedule.
	reduceInterval int64
	nextReduce     int64

	// lbdSeen/lbdTick stamp decision levels during LBD computation so one
	// pass over a clause counts its distinct levels without clearing.
	lbdSeen []int64
	lbdTick int64

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

	seen []bool
	// analyzeT, minStack, toClear and addBuf are scratch, reused across
	// calls: the learnt clause under construction, the minimizer's DFS
	// stack, the literals whose seen marks analyze must clear, and
	// AddClause's simplified copy.
	analyzeT []Lit
	minStack []Lit
	toClear  []Lit
	addBuf   []Lit

	// assumptions holds the literals of the current SolveAssuming call;
	// each occupies its own decision level below all search decisions.
	assumptions []Lit
	// failed is the subset of assumptions responsible for the last
	// assumption-level Unsat (see FailedAssumptions).
	failed []Lit
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{
		varInc:      1,
		claInc:      1,
		claDecay:    0.999,
		ok:          true,
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

// MemoryBytes is the solver's retained heap, for session memory budgets:
// the capacity of every array the solver holds — the clause arena and
// reference lists, each literal's watch list and the watch block's
// uncarved tail, the per-variable and per-literal arrays and the trail.
// Capacity is what the GC actually holds (a popped arena still pins its
// backing array). Per-call scratch buffers and fixed-size fields are left
// out. It must stay cheap: callers invoke it after every check.
func (s *Solver) MemoryBytes() int64 {
	n := sliceBytes(s.arena) + sliceBytes(s.clauses) + sliceBytes(s.learnts) +
		sliceBytes(s.watches) + sliceBytes(s.watchSlab) +
		sliceBytes(s.vars) + sliceBytes(s.act) + sliceBytes(s.heapIdx) + sliceBytes(s.flags) +
		sliceBytes(s.seen) + sliceBytes(s.order.heap) + sliceBytes(s.assigns) +
		sliceBytes(s.trail) + sliceBytes(s.trailLim) + sliceBytes(s.lbdSeen)
	for _, ws := range s.watches {
		n += sliceBytes(ws)
	}
	return n
}

// sliceBytes is the size of the backing array xs holds.
func sliceBytes[T any](xs []T) int64 {
	var elem T
	return int64(cap(xs)) * int64(unsafe.Sizeof(elem))
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
	s.vars = append(grow(s.vars, 1), varInfo{reason: crefUndef})
	s.act = append(grow(s.act, 1), 0)
	s.heapIdx = append(grow(s.heapIdx, 1), -1)
	s.flags = append(grow(s.flags, 1), varFlags{})
	s.assigns = append(grow(s.assigns, 2), lUndef, lUndef)
	s.watches = append(grow(s.watches, 2), s.carveWatches(), s.carveWatches())
	s.seen = append(grow(s.seen, 1), false)
	s.order.push(v)
	return v
}

// carveWatches returns an empty watch list whose first watchInit slots
// come from the shared block, so most literals never allocate one of
// their own. A list that outgrows its slots moves to a heap array of its
// own; the slots it leaves stay with the block until the solver is
// dropped.
func (s *Solver) carveWatches() []watcher {
	if len(s.watchSlab) < watchInit {
		s.watchSlab = make([]watcher, watchBlock)
	}
	ws := s.watchSlab[:0:watchInit]
	s.watchSlab = s.watchSlab[watchInit:]
	return ws
}

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
	out := s.addBuf[:0]
	for _, l := range lits {
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
	s.addBuf = out
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
	s.clauses = append(grow(s.clauses, 1), c)
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
func (s *Solver) Value(v int) bool { return s.assigns[PosLit(v)] == lTrue }

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
	s.vars[l.Var()] = varInfo{level: int32(s.decisionLevel()), reason: reason}
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

// analyze derives the first-UIP learnt clause of conflict confl,
// minimized recursively (see removable), with the asserting literal first
// and a literal of the backjump level second. The clause lives in the
// analyzeT buffer, valid until the next call.
func (s *Solver) analyze(confl cref) (learnt []Lit, backLevel int) {
	pathC := 0
	var p Lit = -1
	learnt = append(s.analyzeT[:0], 0) // reserve slot for the asserting literal
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
	s.analyzeT = learnt

	// Minimize recursively (Sörensson & Biere): drop each literal the rest
	// of the clause implies. The seen marks now cover exactly the
	// variables of learnt[1:]; removable adds marks of its own, and every
	// mark is cleared through toClear once all checks are done.
	var levels uint32
	for _, q := range learnt[1:] {
		levels |= s.abstractLevel(q.Var())
	}
	s.toClear = append(s.toClear[:0], learnt[1:]...)
	kept := 1
	for _, q := range learnt[1:] {
		if s.vars[q.Var()].reason == crefUndef || !s.removable(q, levels) {
			learnt[kept] = q
			kept++
		}
	}
	for _, q := range s.toClear {
		s.seen[q.Var()] = false
	}
	learnt = learnt[:kept]

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

// removable reports whether learnt literal q, which has a reason, is
// implied by the rest of the clause: every path back through reason
// clauses ends in a seen literal or at level 0. A seen literal is one of
// learnt[1:] or one an earlier call showed implied; all are false. A
// reason-less literal, or one whose level is not among the clause's
// levels (the abstractLevel mask), cannot be implied, so it fails the
// search at once. A failed search unmarks what it marked; a successful
// one leaves its marks, in toClear, for later calls to stop at.
func (s *Solver) removable(q Lit, levels uint32) bool {
	stack := append(s.minStack[:0], q)
	top := len(s.toClear)
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, l := range s.clsLits(s.vars[p.Var()].reason) {
			v := l.Var()
			if v == p.Var() || s.seen[v] || s.vars[v].level == 0 {
				continue
			}
			if s.vars[v].reason == crefUndef || s.abstractLevel(v)&levels == 0 {
				for _, m := range s.toClear[top:] {
					s.seen[m.Var()] = false
				}
				s.toClear = s.toClear[:top]
				s.minStack = stack
				return false
			}
			s.seen[v] = true
			stack = append(stack, l)
			s.toClear = append(s.toClear, l)
		}
	}
	s.minStack = stack
	return true
}

// abstractLevel is v's decision level as one bit of a 32-bit mask, so a
// clause's levels fold into one word that a membership test reads.
func (s *Solver) abstractLevel(v int) uint32 {
	return 1 << (uint32(s.vars[v].level) & 31)
}

func (s *Solver) backtrack(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.Var()
		f := &s.flags[v]
		f.phase = !l.Sign()
		f.polInit = true
		s.assigns[l] = lUndef
		s.assigns[l^1] = lUndef
		s.vars[v].reason = crefUndef
		if s.heapIdx[v] < 0 {
			s.order.push(v)
		}
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v int) {
	s.act[v] += s.varInc
	if s.act[v] > 1e100 {
		for i := range s.act {
			s.act[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.heapIdx[v] >= 0 {
		s.order.up(int(s.heapIdx[v]))
	}
}

// clauseLBD counts the distinct nonzero decision levels among lits — the
// clause's literal block distance (Audemard & Simon). One stamped pass:
// no clearing, no allocation on the hot path. lbdSeen is indexed by
// level, which is not bounded by the variable count: a repeated or
// already implied assumption still opens a level of its own.
func (s *Solver) clauseLBD(lits []Lit) int {
	s.lbdTick++
	n := 0
	for _, l := range lits {
		lv := s.vars[l.Var()].level
		if int(lv) >= len(s.lbdSeen) {
			s.lbdSeen = append(s.lbdSeen, make([]int64, int(lv)+1-len(s.lbdSeen))...)
		}
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
	s.assumptions = append(s.assumptions[:0], assumptions...)
	s.failed = s.failed[:0]
	var restartN int64
	for {
		restartN++
		budget := 100 * luby(restartN)
		st := s.search(budget)
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
			s.varInc /= varDecay
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
		if f := s.flags[v]; f.polInit && f.phase {
			s.enqueue(PosLit(v), crefUndef)
		} else {
			s.enqueue(NegLit(v), crefUndef)
		}
	}
}

func (s *Solver) pickBranchVar() int {
	if s.rng.Float64() < randomFreq && len(s.vars) > 0 {
		v := s.rng.Intn(len(s.vars))
		if s.assigns[PosLit(v)] == lUndef {
			return v
		}
	}
	for s.order.size() > 0 {
		v := s.order.pop()
		if s.assigns[PosLit(v)] == lUndef {
			return v
		}
	}
	return -1
}

// maybeReduceDB triggers learned-clause DB reduction on a geometrically
// growing conflict schedule.
func (s *Solver) maybeReduceDB() {
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
	var cands []cref
	for _, c := range s.learnts {
		if s.clsSize(c) <= 2 || s.clsLBD(c) <= glueLBD || s.locked(c) {
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

// locked reports whether clause c (longer than two literals) is the
// reason of an assignment on the trail. Propagation always implies a long
// clause's first literal, and backtracking clears the reasons it undoes,
// so only the first literal's variable can hold c as its reason.
func (s *Solver) locked(c cref) bool {
	return s.vars[s.arena[int(c)+hdrWords].Var()].reason == c
}

// dropLearnts removes the given learned clauses and rebuilds the watch
// lists over the survivors. The arena slots leak until the next
// compaction point (Simplify or Preprocess).
func (s *Solver) dropLearnts(drop []cref) {
	if len(drop) == 0 {
		return
	}
	for _, c := range drop {
		s.arena[c] |= deletedFlag
	}
	kept := s.learnts[:0]
	for _, c := range s.learnts {
		if s.arena[c]&deletedFlag != 0 {
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

// varHeap is a max-heap of variables over the solver's activity array;
// the solver's heapIdx array records each variable's position.
type varHeap struct {
	s    *Solver
	heap []int32
}

func (h *varHeap) size() int { return len(h.heap) }

func (h *varHeap) less(i, j int) bool {
	return h.s.act[h.heap[i]] > h.s.act[h.heap[j]]
}

func (h *varHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.s.heapIdx[h.heap[i]] = int32(i)
	h.s.heapIdx[h.heap[j]] = int32(j)
}

func (h *varHeap) push(v int) {
	if h.s.heapIdx[v] >= 0 {
		return
	}
	h.heap = append(grow(h.heap, 1), int32(v))
	i := len(h.heap) - 1
	h.s.heapIdx[v] = int32(i)
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
	h.s.heapIdx[v] = -1
	if len(h.heap) > 0 {
		h.down(0)
	}
	return int(v)
}
