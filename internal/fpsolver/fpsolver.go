// Package fpsolver is a violation-guided local search over the
// floating-point constraints STAUB's real-to-FP translation emits. It
// finds models, often in a few moves, but proves nothing unsat; package
// solver runs it on the first half of an FP solve's budget and decides
// the rest by CDCL over package bitblast's round-to-nearest-even
// circuits.
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
	// SearchIters bounds local-search steps (default 50000).
	SearchIters int
	// NodeBudget bounds total search nodes — a deterministic work budget
	// that, unlike Deadline, is identical across runs (0: unlimited).
	NodeBudget int64
	// Seed drives the local search.
	Seed int64
}

func (p Params) withDefaults() Params {
	if p.SearchIters == 0 {
		p.SearchIters = 50000
	}
	return p
}

// Stats reports search effort.
type Stats struct {
	Nodes    int64
	TimedOut bool
}

type solver struct {
	c        *smt.Constraint
	params   Params
	fpVars   []*smt.Term
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

// Solve searches for a model of a floating-point constraint. It answers
// Sat with a model or Unknown, never Unsat. A constraint without
// floating-point variables, or with a variable of another sort (boolean
// ones included), is outside its fragment: it answers Unknown at once.
func Solve(c *smt.Constraint, p Params) (status.Status, eval.Assignment, Stats) {
	p = p.withDefaults()
	s := &solver{c: c, params: p}
	for _, v := range c.Vars {
		if v.Sort.Kind != smt.KindFloat {
			return status.Unknown, nil, Stats{}
		}
		s.fpVars = append(s.fpVars, v)
	}
	if len(s.fpVars) == 0 {
		return status.Unknown, nil, Stats{}
	}
	st, m := s.localSearch()
	return st, m, Stats{Nodes: s.nodes, TimedOut: s.timedOut}
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
