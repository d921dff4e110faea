// Pre/inprocessing over the clause database: subsumption and
// self-subsuming resolution via occurrence lists.
//
// Both are equivalence-preserving, so they are safe under every
// incremental usage pattern: clauses added later, assumption solving,
// activation-literal retirement. The one-shot bit-blast path and every
// incremental session round run the same pass.
package sat

import "staub/internal/chaos"

// Chaos fault-injection sites inside the solver (see internal/chaos).
// They sit on the cold boundaries — preprocessing entry and DB
// reduction — never inside the propagation loop.
const (
	sitePreprocess = "sat:preprocess"
	siteReduce     = "sat:reduce"
)

// chaosAt is the package-local alias the hot-path call sites use; with no
// injector enabled it is one atomic load.
func chaosAt(site string) chaos.Fault { return chaos.At(site) }

// chaosPreprocess applies an injected fault at the preprocessing
// boundary; true means preprocessing is skipped (it is an optimization,
// so skipping contains the fault without touching the verdict).
func (s *Solver) chaosPreprocess(f chaos.Fault) (skip bool) {
	switch f {
	case chaos.FaultPassPanic:
		panic(chaos.Injected{Site: sitePreprocess})
	case chaos.FaultSolverStall:
		chaos.Stall(0, s.exhausted)
	case chaos.FaultBudgetBlowup:
		s.Stats.Propagations += chaos.BlowupWork()
	case chaos.FaultTransientError:
		skip = true
	}
	return skip
}

// chaosReduce applies an injected fault at the reduceDB boundary; true
// means this reduction is skipped (the DB just stays larger until the
// next one).
func (s *Solver) chaosReduce(f chaos.Fault) (skip bool) {
	switch f {
	case chaos.FaultPassPanic:
		panic(chaos.Injected{Site: siteReduce})
	case chaos.FaultSolverStall:
		chaos.Stall(0, s.exhausted)
	case chaos.FaultBudgetBlowup:
		s.Stats.Propagations += chaos.BlowupWork()
	case chaos.FaultTransientError:
		skip = true
	}
	return skip
}

// occScanLimit caps the occurrence-list scans in backward subsumption
// and self-subsuming resolution. A literal occurring in thousands of
// clauses makes every clause mentioning its negation pay that scan;
// skipping those lists loses a few subsumptions but keeps preprocessing
// linear in practice.
const occScanLimit = 500

// Preprocess simplifies the clause database at decision level 0:
// level-0 sweep, backward subsumption and self-subsuming resolution. Call
// it between solves; pending assumptions do not survive it. It is
// idempotent and cheap on an already-preprocessed database, which is what
// makes it usable as per-round inprocessing in incremental sessions. A
// raised interrupt (see Interrupted) cuts subsumption short; the database
// committed is still equivalent to the input.
func (s *Solver) Preprocess() {
	if !s.ok {
		return
	}
	if f := chaosAt(sitePreprocess); f != chaos.FaultNone && s.chaosPreprocess(f) {
		return
	}
	// Level-0 sweep first: removes satisfied clauses and falsified
	// literals, so the occurrence index below sees only live literals.
	s.Simplify()
	if !s.ok {
		return
	}
	p := &preprocessor{s: s}
	p.init()
	p.subsumeAll()
	p.commit()
}

// preprocessor is the occurrence-indexed working state of one Preprocess
// call. Clause deletion is by nil-ing the slot; occurrence lists may hold
// stale entries (they over-approximate membership and every use
// re-verifies), which keeps strengthening O(1).
type preprocessor struct {
	s   *Solver
	cls [][]Lit  // problem clause literals; nil = deleted
	sig []uint64 // literal-set signature per clause
	occ [][]int  // literal → clause indices (stale entries allowed)
	// queue holds clause indices pending a (re-)subsumption pass as the
	// subsuming side; inQ dedups.
	queue []int
	inQ   []bool
}

func litSig(l Lit) uint64 { return 1 << (uint64(l) % 64) }

func (p *preprocessor) init() {
	s := p.s
	// Copy the problem clauses out of the arena into one backing array:
	// the working set mutates freely (strengthening in place, deletion)
	// and commit rebuilds the arena from whatever survives.
	total, maxLen := 0, 0
	for _, c := range s.clauses {
		total += s.clsSize(c)
		maxLen = max(maxLen, s.clsSize(c))
	}
	lits := make([]Lit, 0, total)
	p.cls = make([][]Lit, len(s.clauses))
	p.sig = make([]uint64, len(p.cls))
	p.inQ = make([]bool, len(p.cls))
	occN := make([]int, len(s.watches))
	for i, c := range s.clauses {
		start := len(lits)
		lits = append(lits, s.clsLits(c)...)
		p.cls[i] = lits[start:len(lits):len(lits)]
		var sig uint64
		for _, l := range p.cls[i] {
			sig |= litSig(l)
			occN[l]++
		}
		p.sig[i] = sig
	}
	// Occurrence lists: counted first, then filled in clause order, each a
	// capped window of one backing array.
	occ := make([]int, total)
	p.occ = make([][]int, len(s.watches))
	for l, n := range occN {
		p.occ[l], occ = occ[:0:n], occ[n:]
	}
	for i, c := range p.cls {
		for _, l := range c {
			p.occ[l] = append(p.occ[l], i)
		}
	}
	// Seed the queue shortest-first, clause order within a length (a
	// stable bucket sort): small clauses subsume the most.
	next := make([]int, maxLen+2)
	for _, c := range p.cls {
		next[len(c)+1]++
	}
	for n := 1; n < len(next); n++ {
		next[n] += next[n-1]
	}
	p.queue = make([]int, len(p.cls))
	for i, c := range p.cls {
		p.queue[next[len(c)]] = i
		next[len(c)]++
		p.inQ[i] = true
	}
}

func (p *preprocessor) push(i int) {
	if !p.inQ[i] {
		p.inQ[i] = true
		p.queue = append(p.queue, i)
	}
}

// subsumeAll drains the subsumption queue, polling the solver's interrupt
// every 256 items. Stopping early is sound: subsumption and
// self-subsuming resolution preserve equivalence, so commit keeps
// whatever database the pass has reached.
func (p *preprocessor) subsumeAll() {
	for n := 0; len(p.queue) > 0 && p.s.ok; n++ {
		if n%256 == 0 && p.s.Interrupted() {
			return
		}
		i := p.queue[0]
		p.queue = p.queue[1:]
		p.inQ[i] = false
		if p.cls[i] == nil {
			continue
		}
		p.backwardSubsume(i)
	}
}

// contains reports whether clause lits contain l.
func contains(lits []Lit, l Lit) bool {
	for _, m := range lits {
		if m == l {
			return true
		}
	}
	return false
}

// subsumes reports whether every literal of c appears in d.
func subsumes(c, d []Lit) bool {
	for _, l := range c {
		if !contains(d, l) {
			return false
		}
	}
	return true
}

// backwardSubsume finds the clauses clause i subsumes (delete) or
// self-subsumes (strengthen: resolving on one flipped literal yields a
// resolvent that subsumes the target, so the flipped literal can be
// removed from it).
func (p *preprocessor) backwardSubsume(i int) {
	s := p.s
	c := p.cls[i]
	// Scan the smallest occurrence list among c's literals: every clause
	// c subsumes contains all of c's literals, so any one list covers
	// them all.
	minLit := c[0]
	for _, l := range c[1:] {
		if len(p.occ[l]) < len(p.occ[minLit]) {
			minLit = l
		}
	}
	if len(p.occ[minLit]) > occScanLimit {
		return
	}
	for _, j := range p.occ[minLit] {
		d := p.cls[j]
		if j == i || d == nil || len(d) < len(c) {
			continue
		}
		if p.sig[i]&^p.sig[j] != 0 || !subsumes(c, d) {
			continue
		}
		p.cls[j] = nil
		s.Stats.Subsumed++
	}
	// Self-subsuming resolution: c with one literal l flipped subsumes d
	// ⇒ the resolvent of c and d on l equals d minus ¬l; drop ¬l from d.
	for li, l := range c {
		if len(p.occ[l.Not()]) > occScanLimit {
			continue
		}
		flipSig := p.sig[i]&^litSig(l) | litSig(l.Not())
		for _, j := range p.occ[l.Not()] {
			d := p.cls[j]
			if j == i || d == nil || len(d) < len(c) {
				continue
			}
			if flipSig&^p.sig[j] != 0 || !contains(d, l.Not()) {
				continue
			}
			ok := true
			for mi, m := range c {
				if mi == li {
					continue
				}
				if !contains(d, m) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			p.strengthen(j, l.Not())
			if !s.ok {
				return
			}
		}
	}
}

// strengthen removes lit from clause j, requeueing it (a shorter clause
// subsumes more) and promoting it to a level-0 unit when one literal
// remains.
func (p *preprocessor) strengthen(j int, lit Lit) {
	s := p.s
	d := p.cls[j]
	out := d[:0]
	for _, m := range d {
		if m != lit {
			out = append(out, m)
		}
	}
	p.cls[j] = out
	s.Stats.Strengthened++
	var sig uint64
	for _, m := range out {
		sig |= litSig(m)
	}
	p.sig[j] = sig
	switch len(out) {
	case 0:
		s.ok = false
	case 1:
		// Unit: enqueue at level 0; propagation runs at commit once the
		// watch lists are rebuilt.
		if !s.enqueue(out[0], crefUndef) {
			s.ok = false
		}
		p.cls[j] = nil
	default:
		p.push(j)
	}
}

// commit rebuilds the arena from the surviving working set — problem
// clauses first, then the untouched learned clauses (headers preserved) —
// which doubles as the compaction point reclaiming every hole deletion
// and strengthening left behind. It then rebuilds the watch lists and
// propagates any units produced during preprocessing.
func (p *preprocessor) commit() {
	s := p.s
	// Learnt clauses, headers included, must survive the arena rebuild;
	// stage them in one buffer before resetting.
	size := 0
	for _, c := range s.learnts {
		size += hdrWords + s.clsSize(c)
	}
	saved := make([]Lit, 0, size)
	for _, c := range s.learnts {
		saved = append(saved, s.arena[c:int(c)+hdrWords+s.clsSize(c)]...)
	}
	s.arena = s.arena[:0]
	s.clauses = s.clauses[:0]
	for _, lits := range p.cls {
		if lits != nil && len(lits) >= 2 {
			s.clauses = append(s.clauses, s.alloc(lits, false))
		}
	}
	s.learnts = s.learnts[:0]
	for len(saved) > 0 {
		n := hdrWords + int(saved[0])>>flagBits
		s.learnts = append(s.learnts, cref(len(s.arena)))
		s.arena = append(s.arena, saved[:n]...)
		saved = saved[n:]
	}
	// Preprocessing runs at level 0 with trail reasons already cleared by
	// Simplify; clear defensively so no reason survives pointing into the
	// discarded arena.
	for _, l := range s.trail {
		s.vars[l.Var()].reason = crefUndef
	}
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
