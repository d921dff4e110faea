package fpsolver

import (
	"math/big"

	"staub/internal/eval"
	"staub/internal/fp"
	"staub/internal/smt"
	"staub/internal/status"
)

// eagerStream is the enumeration the exhaustive search used before
// candStream: Candidates(sort) built in full and filtered by the unit
// bound up front, then served from memory.
func eagerStream(sort smt.Sort, b [2]*big.Rat) *candStream {
	cs := newCandStream(sort, b)
	for _, v := range candidates(sort) {
		r, _ := v.Rat()
		if b[0] != nil && r.Cmp(b[0]) < 0 || b[1] != nil && r.Cmp(b[1]) > 0 {
			continue
		}
		cs.vals = append(cs.vals, v)
	}
	cs.next = 2 * cs.half
	return cs
}

// SolveEager is Solve over eagerStream: the reference the
// trajectory-invariance tests hold the lazy enumeration to.
func SolveEager(c *smt.Constraint, p Params) (status.Status, eval.Assignment, Stats) {
	return solveWith(c, p, eagerStream)
}

// LazyCandidates drains the lazy enumeration of sort under the closed
// bound [lo, hi] (nil: open).
func LazyCandidates(sort smt.Sort, lo, hi *big.Rat) []fp.Value {
	s := &solver{}
	cs := newCandStream(sort, [2]*big.Rat{lo, hi})
	var out []fp.Value
	for k := 0; ; k++ {
		v, ok := s.at(cs, k)
		if !ok {
			return out
		}
		out = append(out, v)
	}
}
