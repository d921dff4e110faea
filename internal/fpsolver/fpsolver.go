// Package fpsolver decides the small parameterized-width floating-point
// constraints STAUB's real-to-FP translation emits. Because the theory is
// bounded (Definition 3.3 of the paper), the search space per variable is
// finite: for the sorts STAUB selects it is typically a few thousand bit
// patterns, so an exhaustive search with per-assertion pruning is a
// complete decision procedure. Larger spaces fall back to a
// violation-guided local search that can find models but not prove unsat.
package fpsolver

import (
	"math"
	"math/big"
	"math/rand"
	"sync/atomic"
	"time"

	"staub/internal/eval"
	"staub/internal/fp"
	"staub/internal/smt"
	"staub/internal/status"
)

// Params configures a solve call.
type Params struct {
	// Deadline aborts the search when passed (zero: none).
	Deadline time.Time
	// Interrupt aborts the search when it becomes true (nil: none).
	Interrupt *atomic.Bool
	// ExhaustiveLimit is the largest total assignment-space size decided
	// exhaustively (default 1<<21).
	ExhaustiveLimit float64
	// SearchIters bounds local-search steps (default 50000).
	SearchIters int
	// NodeBudget bounds total search nodes — a deterministic work budget
	// that, unlike Deadline, is identical across runs (0: unlimited).
	NodeBudget int64
	// Seed drives the local search.
	Seed int64
}

func (p Params) withDefaults() Params {
	if p.ExhaustiveLimit == 0 {
		p.ExhaustiveLimit = 1 << 21
	}
	if p.SearchIters == 0 {
		p.SearchIters = 50000
	}
	return p
}

// Stats reports search effort.
type Stats struct {
	Nodes      int64
	Exhaustive bool
	TimedOut   bool
}

type solver struct {
	c        *smt.Constraint
	params   Params
	fpVars   []*smt.Term
	boolVars []*smt.Term
	// stream builds one variable's candidate enumeration for the
	// exhaustive search.
	stream func(smt.Sort, [2]*big.Rat) *candStream
	// byLastVar[i] lists assertions whose variables are all among the
	// first i+1 fp variables (for pruning during exhaustive DFS).
	nodes    int64
	timedOut bool
}

// checkBudget charges one search node. The interrupt is one atomic load,
// polled on every node so a cancelled solve stops within one node; the
// node budget and the clock keep their cadence, so an uninterrupted
// search visits the same nodes either way.
func (s *solver) checkBudget() bool {
	if s.timedOut {
		return false
	}
	s.nodes++
	if s.params.NodeBudget > 0 && s.nodes > s.params.NodeBudget {
		s.timedOut = true
		return false
	}
	if s.interrupted() {
		return false
	}
	if s.nodes%512 == 0 && !s.params.Deadline.IsZero() && time.Now().After(s.params.Deadline) {
		s.timedOut = true
		return false
	}
	return true
}

// interrupted polls the interrupt flag, recording a timeout when it is
// raised.
func (s *solver) interrupted() bool {
	if s.params.Interrupt != nil && s.params.Interrupt.Load() {
		s.timedOut = true
	}
	return s.timedOut
}

// Solve decides a floating-point constraint.
func Solve(c *smt.Constraint, p Params) (status.Status, eval.Assignment, Stats) {
	return solveWith(c, p, newCandStream)
}

// solveWith is Solve with the exhaustive search's candidate enumeration built
// by stream; tests substitute the eager reference.
func solveWith(c *smt.Constraint, p Params, stream func(smt.Sort, [2]*big.Rat) *candStream) (status.Status, eval.Assignment, Stats) {
	p = p.withDefaults()
	s := &solver{c: c, params: p, stream: stream}
	for _, v := range c.Vars {
		switch v.Sort.Kind {
		case smt.KindFloat:
			s.fpVars = append(s.fpVars, v)
		case smt.KindBool:
			s.boolVars = append(s.boolVars, v)
		default:
			return status.Unknown, nil, Stats{}
		}
	}
	if len(s.boolVars) > 0 {
		// The translator never emits boolean variables alongside floats in
		// practice; treat their presence as out of fragment.
		return status.Unknown, nil, Stats{}
	}

	// Space size: product of 2^(total bits) per variable.
	space := 1.0
	for _, v := range s.fpVars {
		space *= math.Pow(2, float64(v.Sort.TotalBits()))
	}
	if space <= p.ExhaustiveLimit {
		st, m := s.exhaustive()
		return st, m, Stats{Nodes: s.nodes, Exhaustive: true, TimedOut: s.timedOut}
	}
	st, m := s.localSearch()
	return st, m, Stats{Nodes: s.nodes, TimedOut: s.timedOut}
}

// assertionIndex returns, for each fp variable position, the assertions
// that become fully assigned at that position given the variable order.
func (s *solver) assertionIndex() [][]*smt.Term {
	pos := map[string]int{}
	for i, v := range s.fpVars {
		pos[v.Name] = i
	}
	out := make([][]*smt.Term, len(s.fpVars))
	for _, a := range s.c.Assertions {
		last := -1
		for _, v := range a.Vars() {
			if p, ok := pos[v.Name]; ok && p > last {
				last = p
			}
		}
		if last < 0 {
			last = 0 // ground assertion: check at the first level
		}
		out[last] = append(out[last], a)
	}
	return out
}

// candidates returns every bit pattern of the sort ordered small-magnitude
// first (positive then negative per magnitude), excluding NaN and
// infinities (which the translation guards off). The exhaustive search
// enumerates the same order lazily (candStream); this eager list is its
// reference.
func candidates(sort smt.Sort) []fp.Value {
	f := smt.FPFormat(sort)
	total := f.TotalBits()
	half := 1 << (total - 1)
	out := make([]fp.Value, 0, 1<<total)
	for m := 0; m < half; m++ {
		posV := fp.FromBits(f, big.NewInt(int64(m)))
		if posV.IsFinite() {
			out = append(out, posV)
		}
		negV := fp.FromBits(f, big.NewInt(int64(m|half)))
		if negV.IsFinite() {
			out = append(out, negV)
		}
	}
	return out
}

// unitBounds scans top-level assertions of the shape (op var const) or
// (op const var) and returns, per variable, a closed rational interval
// every model must respect. Pruning candidates against it is sound
// because each assertion must hold in any model.
func (s *solver) unitBounds() map[string][2]*big.Rat {
	out := map[string][2]*big.Rat{}
	tighten := func(name string, lo, hi *big.Rat) {
		b, ok := out[name]
		if !ok {
			out[name] = [2]*big.Rat{lo, hi}
			return
		}
		if lo != nil && (b[0] == nil || lo.Cmp(b[0]) > 0) {
			b[0] = lo
		}
		if hi != nil && (b[1] == nil || hi.Cmp(b[1]) < 0) {
			b[1] = hi
		}
		out[name] = b
	}
	for _, a := range s.c.Assertions {
		op := a.Op
		if len(a.Args) != 2 {
			continue
		}
		v, k := a.Args[0], a.Args[1]
		flipped := false
		if v.Op == smt.OpFPConst && k.Op == smt.OpVar {
			v, k = k, v
			flipped = true
		}
		if v.Op != smt.OpVar || k.Op != smt.OpFPConst || k.Class != smt.FPFinite {
			continue
		}
		bound := k.RatVal
		switch op {
		case smt.OpFPEq:
			tighten(v.Name, bound, bound)
		case smt.OpFPLt, smt.OpFPLe:
			if flipped { // const < var
				tighten(v.Name, bound, nil)
			} else {
				tighten(v.Name, nil, bound)
			}
		case smt.OpFPGt, smt.OpFPGe:
			if flipped { // const > var
				tighten(v.Name, nil, bound)
			} else {
				tighten(v.Name, bound, nil)
			}
		}
	}
	return out
}

// candStream enumerates one variable's candidates lazily: the order of
// candidates(sort), keeping only patterns inside the variable's unit
// bounds. Patterns generated so far are memoized, so deeper DFS levels
// replay their prefix instead of regenerating it, and a search that stops
// early never builds the rest of a space of up to 2^21 patterns.
type candStream struct {
	f      fp.Format
	half   int
	next   int // next raw pattern in enumeration order, 0 ≤ next ≤ 2*half
	lo, hi *big.Rat
	vals   []fp.Value
}

func newCandStream(sort smt.Sort, bound [2]*big.Rat) *candStream {
	f := smt.FPFormat(sort)
	return &candStream{f: f, half: 1 << (f.TotalBits() - 1), lo: bound[0], hi: bound[1]}
}

// at returns the k-th candidate of cs, generating patterns until it
// exists. It reports false when the stream is exhausted, or when the
// interrupt fires while patterns outside the bounds are being skipped
// (s.timedOut tells the two apart).
func (s *solver) at(cs *candStream, k int) (fp.Value, bool) {
	for len(cs.vals) <= k {
		if cs.next == 2*cs.half || s.interrupted() {
			return fp.Value{}, false
		}
		// Raw pattern 2m is magnitude m positive, 2m+1 the same negated.
		m := cs.next / 2
		if cs.next%2 == 1 {
			m |= cs.half
		}
		cs.next++
		v := fp.FromBits(cs.f, big.NewInt(int64(m)))
		if !v.IsFinite() {
			continue
		}
		if cs.lo != nil || cs.hi != nil {
			r, _ := v.Rat()
			if cs.lo != nil && r.Cmp(cs.lo) < 0 || cs.hi != nil && r.Cmp(cs.hi) > 0 {
				continue
			}
		}
		cs.vals = append(cs.vals, v)
	}
	return cs.vals[k], true
}

func (s *solver) exhaustive() (status.Status, eval.Assignment) {
	if len(s.fpVars) == 0 {
		m := eval.Assignment{}
		ok, err := eval.Constraint(s.c, m)
		if err != nil || !ok {
			return status.Unsat, nil
		}
		return status.Sat, m
	}
	bounds := s.unitBounds()
	cands := make([]*candStream, len(s.fpVars))
	for i, v := range s.fpVars {
		cands[i] = s.stream(v.Sort, bounds[v.Name])
	}
	index := s.assertionIndex()
	asg := eval.Assignment{}
	st := s.dfs(0, cands, index, asg)
	if st == status.Sat {
		return status.Sat, asg
	}
	if s.timedOut {
		return status.Unknown, nil
	}
	return status.Unsat, nil
}

func (s *solver) dfs(i int, cands []*candStream, index [][]*smt.Term, asg eval.Assignment) status.Status {
	if i == len(s.fpVars) {
		return status.Sat
	}
	name := s.fpVars[i].Name
	for k := 0; ; k++ {
		cand, more := s.at(cands[i], k)
		if !more {
			break
		}
		if !s.checkBudget() {
			return status.Unknown
		}
		asg[name] = eval.FPValue(cand)
		ok := true
		for _, a := range index[i] {
			holds, err := eval.Bool(a, asg)
			if err != nil || !holds {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if st := s.dfs(i+1, cands, index, asg); st != status.Unsat {
			return st
		}
	}
	delete(asg, name)
	return status.Unsat
}

// localSearch hill-climbs over assignments guided by a violation cost.
func (s *solver) localSearch() (status.Status, eval.Assignment) {
	rng := rand.New(rand.NewSource(s.params.Seed + 1))
	// Seed values: constants from the constraint plus small integers.
	seeds := map[string][]fp.Value{}
	for _, v := range s.fpVars {
		f := smt.FPFormat(v.Sort)
		var list []fp.Value
		for _, k := range []int64{0, 1, -1, 2, -2, 3, 5, 10, -10, 100} {
			val, _ := fp.FromRat(f, big.NewRat(k, 1))
			list = append(list, val)
		}
		seeds[v.Name] = list
	}
	for _, a := range s.c.Assertions {
		a.Walk(func(t *smt.Term) bool {
			if t.Op == smt.OpFPConst && t.Class == smt.FPFinite {
				for _, v := range s.fpVars {
					if v.Sort == t.Sort {
						seeds[v.Name] = append(seeds[v.Name], smt.FPValueOf(t))
					}
				}
			}
			return true
		})
	}

	best := eval.Assignment{}
	for _, v := range s.fpVars {
		best[v.Name] = eval.FPValue(seeds[v.Name][0])
	}
	bestCost := s.cost(best)
	if bestCost == 0 {
		return status.Sat, best
	}

	cur := cloneAsg(best)
	curCost := bestCost
	for iter := 0; iter < s.params.SearchIters; iter++ {
		if !s.checkBudget() {
			break
		}
		v := s.fpVars[rng.Intn(len(s.fpVars))]
		f := smt.FPFormat(v.Sort)
		old := cur[v.Name]
		var next fp.Value
		switch rng.Intn(4) {
		case 0: // jump to a seed value
			list := seeds[v.Name]
			next = list[rng.Intn(len(list))]
		case 1: // ±1 ulp
			bits := old.FP.Bits()
			if rng.Intn(2) == 0 {
				bits.Add(bits, big.NewInt(1))
			} else {
				bits.Sub(bits, big.NewInt(1))
			}
			next = fp.FromBits(f, bits.Abs(bits))
		case 2: // negate
			next = fp.Neg(old.FP)
		default: // random pattern
			next = fp.FromBits(f, randBits(rng, f))
		}
		if !next.IsFinite() {
			continue
		}
		cur[v.Name] = eval.FPValue(next)
		c := s.cost(cur)
		if c == 0 {
			return status.Sat, cur
		}
		if c <= curCost || rng.Float64() < 0.02 {
			curCost = c
			if c < bestCost {
				bestCost = c
				best = cloneAsg(cur)
			}
		} else {
			cur[v.Name] = old
		}
		if iter%2000 == 1999 {
			// Restart from the best point with a random kick.
			cur = cloneAsg(best)
			curCost = bestCost
			kick := s.fpVars[rng.Intn(len(s.fpVars))]
			kf := smt.FPFormat(kick.Sort)
			nv := fp.FromBits(kf, randBits(rng, kf))
			if nv.IsFinite() {
				cur[kick.Name] = eval.FPValue(nv)
				curCost = s.cost(cur)
			}
		}
	}
	return status.Unknown, nil
}

// randBits draws a uniform random bit pattern of the format's width,
// safe for widths at or beyond 63 bits.
func randBits(rng *rand.Rand, f fp.Format) *big.Int {
	out := new(big.Int)
	for bit := 0; bit < f.TotalBits(); bit += 32 {
		out.Lsh(out, 32)
		out.Or(out, big.NewInt(int64(rng.Uint32())))
	}
	mask := new(big.Int).Lsh(big.NewInt(1), uint(f.TotalBits()))
	mask.Sub(mask, big.NewInt(1))
	return out.And(out, mask)
}

func cloneAsg(a eval.Assignment) eval.Assignment {
	out := make(eval.Assignment, len(a))
	for k, v := range a {
		out[k] = v
	}
	return out
}

// cost returns the number of violated assertions plus a bounded distance
// refinement for violated comparisons, so downhill moves exist.
func (s *solver) cost(asg eval.Assignment) float64 {
	total := 0.0
	for _, a := range s.c.Assertions {
		total += s.termCost(a, asg)
	}
	return total
}

func (s *solver) termCost(t *smt.Term, asg eval.Assignment) float64 {
	holds, err := eval.Bool(t, asg)
	if err != nil {
		return 2
	}
	if holds {
		return 0
	}
	// Violated: refine with a distance in (0, 1] for comparisons.
	switch t.Op {
	case smt.OpFPEq, smt.OpFPLt, smt.OpFPLe, smt.OpFPGt, smt.OpFPGe, smt.OpEq:
		lhs, err1 := eval.Term(t.Args[0], asg)
		rhs, err2 := eval.Term(t.Args[1], asg)
		if err1 == nil && err2 == nil && lhs.Sort.Kind == smt.KindFloat && rhs.Sort.Kind == smt.KindFloat {
			lr, ok1 := lhs.FP.Rat()
			rr, ok2 := rhs.FP.Rat()
			if ok1 && ok2 {
				d := new(big.Rat).Sub(lr, rr)
				d.Abs(d)
				df, _ := d.Float64()
				return 0.5 + 0.5*(df/(1+df))
			}
		}
		return 1
	case smt.OpAnd:
		sum := 0.0
		for _, a := range t.Args {
			sum += s.termCost(a, asg)
		}
		if sum == 0 {
			return 1 // evaluation said violated; keep a positive cost
		}
		return sum
	case smt.OpOr:
		best := math.Inf(1)
		for _, a := range t.Args {
			if c := s.termCost(a, asg); c < best {
				best = c
			}
		}
		if math.IsInf(best, 1) || best == 0 {
			return 1
		}
		return best
	}
	return 1
}

// SortCandidateCount reports how many finite patterns a sort has — used by
// callers to predict whether exhaustive solving applies.
func SortCandidateCount(s smt.Sort) int {
	return len(candidates(s))
}

// Candidates is exported for tests: the ordered candidate list of a sort.
func Candidates(s smt.Sort) []fp.Value { return candidates(s) }
