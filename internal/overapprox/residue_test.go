package overapprox_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"staub/internal/benchgen"
	"staub/internal/harness"
	"staub/internal/overapprox"
	"staub/internal/pipeline"
	"staub/internal/smt"
	"staub/internal/status"
)

// residueBudget is the node budget the pass has at the benchmark's
// 200 ms request: 1/40 of 40,000 units at 32 nodes a unit.
const residueBudget = 32000

// TestResidueRefutesUndecidedRows pins the rows of the benchmark's
// portfolio-cold corpus that every portfolio leg left undecided and that
// residues refute, each with the smallest refuting modulus. Each must
// also come out of the over chain as a sound unsat whose residue span
// names the modulus.
func TestResidueRefutesUndecidedRows(t *testing.T) {
	want := map[string]int64{
		"refine/two-square-mod4": 4, "refine/unsat-square-7": 4, "refine/unsat-mod4": 4,
		"refine/legendre-2023": 8, "QF_NIA/cubes-0068": 9, "QF_NIA/cubes-0074": 9,
	}
	for _, i := range []int{0, 6, 26, 30, 60, 70, 71, 76, 83, 85, 86} {
		want[fmt.Sprintf("QF_NIA/mod4-unsat-%04d", i)] = 4
	}
	rows := map[string]*smt.Constraint{}
	insts, err := benchgen.Suite("QF_NIA", 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range insts {
		rows["QF_NIA/"+inst.Name] = inst.Constraint
	}
	for _, ri := range harness.RefinementCorpus() {
		rows["refine/"+ri.Name] = parseScript(t, ri.Src)
	}
	cfg := pipeline.Config{Timeout: 200 * time.Millisecond, Deterministic: true, OverApprox: true, Trace: true}
	for name, m := range want {
		c := rows[name]
		if c == nil {
			t.Fatalf("%s: not in the corpus", name)
		}
		refuted, moduli, nodes := overapprox.Residue(c, residueBudget)
		if !refuted || len(moduli) != 1 || moduli[0] != m {
			t.Errorf("%s: refuted %t by %v in %d nodes, want mod %d", name, refuted, moduli, nodes, m)
		}
		res := pipeline.Run(context.Background(), c, cfg, nil)
		if res.Status != status.Unsat || res.Outcome != pipeline.OutcomeBoundedUnsat || res.Direction != pipeline.DirOver {
			t.Errorf("%s: over chain %v/%v/%v, want unsat/bounded-unsat/over", name, res.Status, res.Outcome, res.Direction)
		}
		if len(res.Trace) != 1 || res.Trace[0].Pass != pipeline.PassResidue ||
			!strings.HasPrefix(res.Trace[0].Note, fmt.Sprintf("refuted mod %d ", m)) {
			t.Errorf("%s: trace %+v, want one residue span naming mod %d", name, res.Trace, m)
		}
	}
}

// TestResidueNeverRefutesPlanted runs the search over benchgen QF_NIA and
// QF_LIA at seeds 1–3, at the benchmark's corpus sizes: no instance with
// a planted model may be refuted.
func TestResidueNeverRefutesPlanted(t *testing.T) {
	refuted := 0
	for _, suite := range []struct {
		logic string
		n     int
	}{{"QF_NIA", 150}, {"QF_LIA", 90}} {
		for seed := int64(1); seed <= 3; seed++ {
			insts, err := benchgen.Suite(suite.logic, suite.n, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, inst := range insts {
				ok, moduli, _ := overapprox.Residue(inst.Constraint, residueBudget)
				if !ok {
					continue
				}
				refuted++
				if inst.PlantedSat {
					t.Errorf("s%d/%s: planted-sat instance refuted mod %v", seed, inst.Name, moduli)
				}
			}
		}
	}
	if refuted == 0 {
		t.Error("no instance refuted: the gate checks nothing")
	}
}

// TestResidueNeverRefutesPlantedRandomSystems draws 1,000 systems of 1–3
// polynomial equalities over 2–4 variables (degree ≤ 3, coefficients in
// [−9, 9]), each built to hold at a random integer point. None may be
// refuted.
func TestResidueNeverRefutesPlantedRandomSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 1000; i++ {
		sys := randomSystem(rng, 2+rng.Intn(3))
		point := make([]int64, sys.vars)
		for j := range point {
			point[j] = int64(rng.Intn(41) - 20)
		}
		for k := range sys.eqs {
			sys.rhs[k] = sys.eqs[k].eval(point)
		}
		if ok, moduli, _ := overapprox.Residue(sys.constraint(t), residueBudget); ok {
			t.Errorf("system %d planted at %v refuted mod %v:\n%s", i, point, moduli, sys.script())
		}
	}
}

// TestResidueRefutationsHoldByBruteForce draws 1,000 systems like the
// planted ones over 2–3 variables but with random right-hand sides, and
// checks every refutation by brute force over |x| ≤ 64.
func TestResidueRefutationsHoldByBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	refuted := 0
	for i := 0; i < 1000; i++ {
		sys := randomSystem(rng, 2+rng.Intn(2))
		for k := range sys.rhs {
			sys.rhs[k] = int64(rng.Intn(101) - 50)
		}
		ok, moduli, _ := overapprox.Residue(sys.constraint(t), residueBudget)
		if !ok {
			continue
		}
		refuted++
		if x := sys.bruteForce(64); x != nil {
			t.Errorf("system %d refuted mod %v, but %v solves it:\n%s", i, moduli, x, sys.script())
		}
	}
	if refuted == 0 {
		t.Error("no system refuted: the gate checks nothing")
	}
	t.Logf("%d of 1000 systems refuted", refuted)
}

// TestResidueFallsThrough checks that the pass leaves the state as it
// found it when it cannot refute: with no equality in some case, outside
// the DNF fragment, past its budget, when interrupted and on a system
// with residue solutions at every modulus.
func TestResidueFallsThrough(t *testing.T) {
	for _, tc := range []struct {
		name, src, note string
		interrupt       bool
	}{
		{"no-equality", `(declare-fun x () Int) (assert (or (= (* x x) 3) (> x 5)))`, "case 2 has no equality (0 nodes)", false},
		{"bool", `(declare-fun x () Int) (declare-fun p () Bool) (assert (and p (= (* x x) 3)))`, "poly: unsupported boolean structure", false},
		{"div", `(declare-fun x () Int) (assert (= (div x 2) 3))`, "poly: term div is not polynomial", false},
		{"real", `(declare-fun x () Real) (assert (= (* x x) 3.0))`, "not an integer constraint", false},
		{"solvable", `(declare-fun x () Int) (declare-fun y () Int) (assert (= (+ (* x x) (* 3 y)) 7))`, "case 1 not refuted", false},
		{"interrupted", `(declare-fun x () Int) (declare-fun y () Int) (declare-fun z () Int)
			(assert (= (+ (* x x x) (* y y y) (* z z z)) 4))`, "budget exhausted or interrupted (256 nodes)", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := pipeline.Config{Timeout: 200 * time.Millisecond, Deterministic: true, Trace: true}
			var intr atomic.Bool
			intr.Store(tc.interrupt)
			st := pipeline.NewState(context.Background(), parseScript(t, tc.src), cfg, time.Time{}, &intr)
			st.Direction = pipeline.DirExact
			pipeline.Exec(st, pipeline.MustPasses(pipeline.PassResidue))
			res := *st.Res
			res.Trace = nil
			if st.Direction != pipeline.DirExact || !reflect.DeepEqual(res, pipeline.Result{Direction: pipeline.DirExact}) {
				t.Errorf("state changed: direction %v, result %+v", st.Direction, res)
			}
			if len(st.Res.Trace) != 1 || !strings.HasPrefix(st.Res.Trace[0].Note, tc.note) {
				t.Errorf("trace %+v, want a note starting %q", st.Res.Trace, tc.note)
			}
		})
	}
	c := parseScript(t, `(declare-fun x () Int) (declare-fun y () Int) (declare-fun z () Int)
		(assert (= (+ (* x x x) (* y y y) (* z z z)) 4))`)
	if ok, _, nodes := overapprox.Residue(c, 500); ok || nodes != 500 {
		t.Errorf("a 500-node budget refuted %t after %d nodes; mod 9 needs more", ok, nodes)
	}
}

// TestResidueClearsDenominators checks equalities with rational
// coefficients, which to_real and / bring into an Int constraint: x/2 =
// 3/2 holds at x = 3, and 2x/4 = 3/4 has no integer solution.
func TestResidueClearsDenominators(t *testing.T) {
	for _, tc := range []struct {
		src    string
		moduli []int64
	}{
		{`(declare-fun x () Int) (assert (= (/ (to_real x) 2) 1.5))`, nil},
		{`(declare-fun x () Int) (assert (= (/ (to_real (* 2 x)) 4) 0.75))`, []int64{2}},
	} {
		refuted, moduli, _ := overapprox.Residue(parseScript(t, tc.src), residueBudget)
		if refuted != (tc.moduli != nil) || !reflect.DeepEqual(moduli, tc.moduli) {
			t.Errorf("%s: refuted %t by %v, want %v", tc.src, refuted, moduli, tc.moduli)
		}
	}
}

// randomSys is a system of polynomial equalities Σ coef·Π x = rhs.
type randomSys struct {
	vars int
	eqs  []randomPoly
	rhs  []int64
}

type randomPoly []randomMono

type randomMono struct {
	coef int64
	vars []int
}

// randomSystem draws 1–3 equalities over nvars variables, each with 1–4
// monomials of degree 1–3 and nonzero coefficients in [−9, 9].
func randomSystem(rng *rand.Rand, nvars int) randomSys {
	sys := randomSys{vars: nvars}
	for k := 1 + rng.Intn(3); k > 0; k-- {
		var p randomPoly
		for n := 1 + rng.Intn(4); n > 0; n-- {
			m := randomMono{coef: int64(rng.Intn(9) + 1)}
			if rng.Intn(2) == 0 {
				m.coef = -m.coef
			}
			for d := 1 + rng.Intn(3); d > 0; d-- {
				m.vars = append(m.vars, rng.Intn(nvars))
			}
			p = append(p, m)
		}
		sys.eqs = append(sys.eqs, p)
	}
	sys.rhs = make([]int64, len(sys.eqs))
	return sys
}

func (p randomPoly) eval(x []int64) int64 {
	sum := int64(0)
	for _, m := range p {
		v := m.coef
		for _, i := range m.vars {
			v *= x[i]
		}
		sum += v
	}
	return sum
}

func smtInt(v int64) string {
	if v < 0 {
		return fmt.Sprintf("(- %d)", -v)
	}
	return fmt.Sprint(v)
}

func (s randomSys) script() string {
	var b strings.Builder
	for i := 0; i < s.vars; i++ {
		fmt.Fprintf(&b, "(declare-fun x%d () Int)\n", i)
	}
	for k, p := range s.eqs {
		b.WriteString("(assert (= (+")
		for _, m := range p {
			fmt.Fprintf(&b, " (* %s", smtInt(m.coef))
			for _, i := range m.vars {
				fmt.Fprintf(&b, " x%d", i)
			}
			b.WriteString(")")
		}
		fmt.Fprintf(&b, " 0) %s))\n", smtInt(s.rhs[k]))
	}
	return b.String()
}

func (s randomSys) constraint(t *testing.T) *smt.Constraint {
	t.Helper()
	return parseScript(t, s.script())
}

// bruteForce returns a solution with every |x| ≤ bound, or nil. It
// enumerates all variables but the last, and for the last one evaluates
// the first equality as a univariate cubic before checking the rest.
func (s randomSys) bruteForce(bound int64) []int64 {
	x := make([]int64, s.vars)
	last := s.vars - 1
	var search func(i int) bool
	search = func(i int) bool {
		if i < last {
			for v := -bound; v <= bound; v++ {
				x[i] = v
				if search(i + 1) {
					return true
				}
			}
			return false
		}
		var c [4]int64 // the first equality's coefficients in x[last]
		c[0] = -s.rhs[0]
		for _, m := range s.eqs[0] {
			v, d := m.coef, 0
			for _, j := range m.vars {
				if j == last {
					d++
				} else {
					v *= x[j]
				}
			}
			c[d] += v
		}
		for v := -bound; v <= bound; v++ {
			if ((c[3]*v+c[2])*v+c[1])*v+c[0] != 0 {
				continue
			}
			x[last] = v
			solved := true
			for k, p := range s.eqs[1:] {
				if p.eval(x) != s.rhs[k+1] {
					solved = false
					break
				}
			}
			if solved {
				return true
			}
		}
		return false
	}
	if search(0) {
		return x
	}
	return nil
}
