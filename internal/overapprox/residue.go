package overapprox

import (
	"fmt"
	"math/big"
	"sort"
	"strings"
	"time"

	"staub/internal/pipeline"
	"staub/internal/poly"
	"staub/internal/smt"
	"staub/internal/solver"
	"staub/internal/translate"
)

// The residue pass's cost model. These are constants, not settings.
const (
	// residueCases caps the DNF expansion of the original constraint.
	residueCases = 64
	// residueCaseNodes caps the enumeration of one (case, modulus) pair.
	residueCaseNodes = 4096
	// residueShare is the fraction of the request's work budget the whole
	// pass may spend: at most 1/residueShare of it.
	residueShare = 40
	// residueNodesPerUnit is the number of enumeration nodes one virtual
	// work unit pays for. Over the 246 QF_NIA, QF_LIA and refinement rows
	// of the benchmark's pipeline-cold corpus the search measured 90–117
	// ns per node on a 2-vCPU x86 VM, so a unit costs 2.9–3.7 µs against
	// the nominal 5 µs.
	residueNodesPerUnit = 32
	// residuePoll is the number of nodes between interrupt polls.
	residuePoll = 256
)

// residueModuli are tried in this order on every case; the first modulus
// under which a case's equalities have no solution is its certificate.
var residueModuli = [...]int64{2, 3, 4, 5, 7, 8, 9, 16, 27, 32}

// residueLCM is a multiple of every modulus above, so a coefficient
// reduced mod residueLCM reduces correctly mod each of them.
const residueLCM = 32 * 27 * 5 * 7

// passResidue refutes an integer constraint by residues: if, for every
// case of the constraint's DNF, the case's equalities have no solution
// modulo some m, the constraint has no integer solution. Reduction mod m
// is a ring homomorphism, so every integer solution of a polynomial
// equality is also a residue solution; dropping a case's other atoms only
// enlarges its solution set. The refutation is therefore sound in the
// over direction: the chain stops at bounded-unsat under DirOver and
// SoundStatus mints the unsat. For m = 2^k the residue system is STAUB's
// own Int→BV translation at width k without its overflow guards.
//
// The pass reads only the original constraint and the request budget. It
// charges one work unit per residueNodesPerUnit nodes, which the bounded
// solve's budget loses as it loses translation work. When it refutes
// nothing it leaves the state, direction included, as it found it.
func passResidue(st *pipeline.State) pipeline.Verdict {
	if v, injected := checkSite(st, siteResidue); injected {
		return v
	}
	budget := solver.WorkBudgetFor(st.Cfg.Timeout) / residueShare * residueNodesPerUnit
	r := refuteResidues(st.Original, budget, func() bool {
		return st.Interrupt.Load() || (st.Ctx != nil && st.Ctx.Err() != nil)
	})
	units := (r.nodes + residueNodesPerUnit - 1) / residueNodesPerUnit
	st.SpanWork = units
	st.SpanNote = r.note()
	if !r.refuted {
		st.ChargedWork += units
		return pipeline.Continue
	}
	res := st.Res
	if st.Cfg.Deterministic {
		res.TTrans += solver.VirtualDuration(units)
	} else {
		res.TTrans += time.Since(st.T0)
	}
	st.Direction = pipeline.ComposeDirection(st.Direction, pipeline.DirOver)
	res.Outcome = st.UnsatOutcome
	res.Status = pipeline.SoundStatus(st.UnsatOutcome, st.Direction)
	return pipeline.Stop
}

// residueResult is what refuteResidues found.
type residueResult struct {
	refuted bool
	// moduli holds each case's refuting modulus, in case order, when
	// refuted.
	moduli []int64
	nodes  int64
	// why says why the pass fell through, when it did.
	why string
}

func (r residueResult) note() string {
	if !r.refuted {
		return fmt.Sprintf("%s (%d nodes)", r.why, r.nodes)
	}
	if len(r.moduli) == 0 {
		return "refuted: the DNF has no case"
	}
	mods := make([]string, len(r.moduli))
	for i, m := range r.moduli {
		mods[i] = fmt.Sprint(m)
	}
	return fmt.Sprintf("refuted mod %s (%d nodes)", strings.Join(mods, ", "), r.nodes)
}

// refuteResidues looks for a modulus refuting each DNF case of c,
// enumerating at most budget nodes in all. stop is polled every
// residuePoll nodes and ends the search unrefuted.
func refuteResidues(c *smt.Constraint, budget int64, stop func() bool) residueResult {
	if kind, err := translate.Classify(c); err != nil || kind != translate.KindIntToBV {
		return residueResult{why: "not an integer constraint"}
	}
	cases, err := poly.DNFConstraint(c, residueCases)
	if err != nil {
		return residueResult{why: err.Error()}
	}
	systems := make([]residueSystem, len(cases))
	for i, cs := range cases {
		systems[i] = newResidueSystem(cs)
		if len(systems[i].eqs) == 0 {
			return residueResult{why: fmt.Sprintf("case %d has no equality", i+1)}
		}
	}
	s := &residueSearch{budget: budget, stop: stop}
	r := residueResult{refuted: true}
	for i, sys := range systems {
		m := s.refute(sys)
		if m == 0 {
			r = residueResult{why: fmt.Sprintf("case %d not refuted", i+1)}
			if s.halted {
				r.why = "budget exhausted or interrupted"
			}
			break
		}
		r.moduli = append(r.moduli, m)
	}
	r.nodes = s.nodes
	return r
}

// residueSystem is one DNF case's equalities over its variables,
// numbered in enumeration order.
type residueSystem struct {
	vars int
	eqs  []residueEq
}

// residueEq is one equality Σ coef·Π vars ≡ 0, checked once its last
// variable in enumeration order is assigned.
type residueEq struct {
	terms []residueTerm
	last  int // index of the last variable; -1 for a constant
}

type residueTerm struct {
	coef int64
	vars []int // variable indices, repeated for powers
}

// newResidueSystem keeps the case's equality atoms, clears each one's
// denominators, reduces its coefficients mod residueLCM and numbers the
// variables so that equalities over few variables are checked early.
func newResidueSystem(cs poly.Case) residueSystem {
	var eqs []poly.Poly
	for _, a := range cs {
		if a.Rel == poly.RelEq {
			eqs = append(eqs, a.P)
		}
	}
	sort.SliceStable(eqs, func(i, j int) bool { return len(eqs[i].Vars()) < len(eqs[j].Vars()) })
	index := map[string]int{}
	for _, p := range eqs {
		for _, v := range p.Vars() {
			if _, ok := index[v]; !ok {
				index[v] = len(index)
			}
		}
	}
	sys := residueSystem{vars: len(index)}
	lcm, g, k, mod := new(big.Int), new(big.Int), new(big.Int), big.NewInt(residueLCM)
	for _, p := range eqs {
		lcm.SetInt64(1)
		for _, coef := range p {
			g.GCD(nil, nil, lcm, coef.Denom())
			lcm.Mul(lcm, g.Quo(coef.Denom(), g))
		}
		eq := residueEq{last: -1}
		for m, coef := range p {
			k.Quo(lcm, coef.Denom()).Mul(k, coef.Num()).Mod(k, mod)
			t := residueTerm{coef: k.Int64()}
			for _, v := range m.Vars() {
				t.vars = append(t.vars, index[v])
				eq.last = max(eq.last, index[v])
			}
			eq.terms = append(eq.terms, t)
		}
		sys.eqs = append(sys.eqs, eq)
	}
	return sys
}

// residueSearch enumerates residue assignments under the pass budget.
type residueSearch struct {
	budget int64
	stop   func() bool
	nodes  int64
	// halted is set once the pass budget is spent or stop fired.
	halted bool

	m      int64
	cap    int64 // node count at which this (case, modulus) gives up
	capped bool
	vals   []int64
	checks [][][]residueTerm // checks[i]: equalities whose last variable is i, mod m
}

// refute returns the first modulus under which sys has no solution, or 0
// when every modulus either has one or ran out of nodes.
func (s *residueSearch) refute(sys residueSystem) int64 {
	for _, m := range residueModuli {
		if s.halted {
			return 0
		}
		if s.unsolvable(sys, m) {
			return m
		}
	}
	return 0
}

// unsolvable reports whether the enumeration proved sys has no solution
// mod m.
func (s *residueSearch) unsolvable(sys residueSystem, m int64) bool {
	s.m, s.capped = m, false
	s.vals = make([]int64, sys.vars)
	s.checks = make([][][]residueTerm, sys.vars)
	for _, eq := range sys.eqs {
		var red []residueTerm
		for _, t := range eq.terms {
			if c := t.coef % m; c != 0 {
				red = append(red, residueTerm{c, t.vars})
			}
		}
		if eq.last < 0 {
			if len(red) > 0 {
				return true // a nonzero constant
			}
			continue
		}
		s.checks[eq.last] = append(s.checks[eq.last], red)
	}
	s.cap = s.nodes + min(residueCaseNodes, s.budget-s.nodes)
	if s.extend(0) {
		return false
	}
	if s.capped && s.nodes >= s.budget {
		s.halted = true
	}
	return !s.capped
}

// extend reports whether the assignment of the variables before i
// extends to a solution.
func (s *residueSearch) extend(i int) bool {
	if i == len(s.vals) {
		return true
	}
	for v := int64(0); v < s.m; v++ {
		if s.nodes >= s.cap {
			s.capped = true
			return false
		}
		s.nodes++
		if s.nodes%residuePoll == 0 && s.stop() {
			s.capped, s.halted = true, true
			return false
		}
		s.vals[i] = v
		if s.holds(i) && s.extend(i+1) {
			return true
		}
		if s.capped {
			return false
		}
	}
	return false
}

// holds reports whether every equality checked at variable i vanishes
// mod m under the current assignment.
func (s *residueSearch) holds(i int) bool {
	for _, eq := range s.checks[i] {
		sum := int64(0)
		for _, t := range eq {
			v := t.coef
			for _, x := range t.vars {
				v = v * s.vals[x] % s.m
			}
			sum += v
		}
		if sum%s.m != 0 {
			return false
		}
	}
	return true
}
