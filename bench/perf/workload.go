package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"staub/internal/benchgen"
	"staub/internal/harness"
	"staub/internal/server"
	"staub/internal/smt"
	"staub/internal/status"
)

// Request settings shared by every verdict request: deterministic
// virtual time under a 200 ms budget (40k work units), so verdicts and
// work counts repeat exactly and wall time measures how fast the code
// does a fixed amount of work.
const (
	timeoutMS = 200
	timeout   = timeoutMS * time.Millisecond
)

// workers is the server's solve worker count: the reference machine's
// cores.
const workers = 2

// corpusSeed fixes every benchgen draw. The corpus is versioned — the
// same constraints on every run and every commit — so numbers stay
// comparable across commits; -seed only orders the requests.
const corpusSeed = 1

// unitMix is one corpus unit: the paper's 100:60:48:24 QF_NIA, QF_LIA,
// QF_NRA, QF_LRA mix at a quarter of its size. A run's corpus is a whole
// number of units, so every run sees the same mix.
var unitMix = []struct {
	logic string
	n     int
}{{"QF_NIA", 25}, {"QF_LIA", 15}, {"QF_NRA", 12}, {"QF_LRA", 6}}

// hotSize is how many distinct constraints portfolio-hot repeats.
const hotSize = 64

// hotZipfS is the Zipf exponent of portfolio-hot's popularity law.
const hotZipfS = 1.1

// probesPerConversation is how many push / assert bound / check / pop
// probes session-probe issues after each conversation's base.
const probesPerConversation = 8

type kind int

const (
	kindCold kind = iota
	kindHot
	kindSession
)

// workload is one traffic mix, driven closed-loop by clients clients.
// unitSeconds is how long the measured phase of one corpus unit takes on
// the reference machine (2 x86 cores) at the commit that defined the
// benchmark; -seconds buys ceil(seconds / unitSeconds) units, so a run
// lasts at least about -seconds there and both sides of a comparison
// replay the same requests.
type workload struct {
	name        string
	kind        kind
	mode        string // /v1/solve mode; empty for sessions
	over        bool
	clients     int
	unitSeconds float64
}

// workloads are the traffic mixes; BENCHMARK.json and README.md say why
// each was chosen. pipeline-cold and portfolio-cold replay one cold corpus
// through the two request modes; portfolio-hot repeats solved
// constraints; session-probe holds conversations.
//
// session-probe runs one client: the server's session table serializes
// every session operation behind any check in progress (its gauges read
// each session's memory under the table lock), so a second conversation
// only waits — measured slower than one client, with timing-dependent
// latencies no bound could hold.
var workloads = []*workload{
	{name: "pipeline-cold", kind: kindCold, mode: "pipeline", clients: 2, unitSeconds: 2.5},
	{name: "portfolio-cold", kind: kindCold, mode: "portfolio", over: true, clients: 2, unitSeconds: 4.5},
	{name: "portfolio-hot", kind: kindHot, mode: "portfolio", over: true, clients: 2, unitSeconds: 2.5},
	{name: "session-probe", kind: kindSession, clients: 1, unitSeconds: 9},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// unitsFor is the number of corpus units a run of the given length buys.
func (w *workload) unitsFor(seconds float64) int {
	return max(1, int(math.Ceil(seconds/w.unitSeconds)))
}

// item is one constraint a verdict request asks about, with what the
// oracle knows of its verdict.
type item struct {
	name    string
	logic   string
	family  string
	c       *smt.Constraint
	script  string // canonical SMT-LIB text, the request's constraint
	planted bool   // benchgen planted a model: unsat is a wrong verdict
	expect  status.Status
}

// expected are the hand-derived verdicts of the named fixed scripts.
var expected = map[string]status.Status{
	"refine/square-diff-201": status.Sat,   // 101² − 100²
	"refine/cubes-855":       status.Sat,   // 7³ + 8³ + 0³
	"refine/legendre-2023":   status.Unsat, // 2023 ≡ 7 (mod 8)
	"refine/two-square-mod4": status.Unsat, // 1000003 ≡ 3 (mod 4)
	"refine/unsat-square-7":  status.Unsat, // 7 is not a square
	"refine/unsat-mod4":      status.Unsat, // squares are 0 or 1 (mod 4)
	"testdata/quad_hard":     status.Sat,   // planted a=17, b=19, c=14, d=15
	"testdata/real_band":     status.Sat,   // x = 7/4
	"testdata/sum_of_cubes":  status.Sat,   // 7³ + 8³ + 0³
	"testdata/width_refine":  status.Sat,   // 101² − 100²
}

func newItem(name, logic, family string, c *smt.Constraint, planted bool) *item {
	exp, ok := expected[name]
	if !ok {
		exp = status.Unknown
	}
	return &item{name: name, logic: logic, family: family, c: c, script: c.Script(), planted: planted, expect: exp}
}

// repoRoot finds the repository root from the working directory (the
// benchmark runs from the root, its tests from bench/perf).
func repoRoot() (string, error) {
	for _, dir := range []string{".", "..", filepath.Join("..", "..")} {
		if st, err := os.Stat(filepath.Join(dir, "internal", "session", "testdata", "sessions")); err == nil && st.IsDir() {
			return dir, nil
		}
	}
	return "", fmt.Errorf("repository root not found from the working directory")
}

// coldCorpus is the cold workloads' corpus at the given number of units:
// benchgen instances in the paper's mix, then the refinement corpus and
// testdata/*.smt2, with duplicate constraints dropped so no request can
// hit the cache.
func coldCorpus(root string, units int) ([]*item, error) {
	var out []*item
	seen := map[string]bool{}
	add := func(it *item) {
		if !seen[it.script] {
			seen[it.script] = true
			out = append(out, it)
		}
	}
	for _, m := range unitMix {
		insts, err := benchgen.Suite(m.logic, m.n*units, corpusSeed)
		if err != nil {
			return nil, err
		}
		for _, in := range insts {
			add(newItem(m.logic+"/"+in.Name, m.logic, in.Family, in.Constraint, in.PlantedSat))
		}
	}
	for _, r := range harness.RefinementCorpus() {
		c, err := smt.ParseScript(r.Src)
		if err != nil {
			return nil, fmt.Errorf("refinement corpus %s: %w", r.Name, err)
		}
		add(newItem("refine/"+r.Name, "QF_NIA", "refine", c, false))
	}
	files, err := filepath.Glob(filepath.Join(root, "testdata", "*.smt2"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		c, err := smt.ParseScript(string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		add(newItem("testdata/"+strings.TrimSuffix(filepath.Base(f), ".smt2"), c.Logic, "testdata", c, false))
	}
	return out, nil
}

// warmupItems are constraints outside the corpus that cold workloads
// solve before timing, so one-time costs (page faults, heap growth, lazy
// initialization) land in set-up rather than in the first requests.
func warmupItems(corpus []*item, n int) ([]*item, error) {
	seen := map[string]bool{}
	for _, it := range corpus {
		seen[it.script] = true
	}
	var out []*item
	per := max(1, n/len(unitMix))
	for _, m := range unitMix {
		insts, err := benchgen.Suite(m.logic, 2*per, corpusSeed+1000)
		if err != nil {
			return nil, err
		}
		taken := 0
		for _, in := range insts {
			it := newItem("warmup/"+in.Name, m.logic, in.Family, in.Constraint, in.PlantedSat)
			if !seen[it.script] && taken < per {
				seen[it.script] = true
				out = append(out, it)
				taken++
			}
		}
	}
	return out, nil
}

// shuffled returns xs in the seed's order.
func shuffled[T any](xs []T, seed int64) []T {
	out := append([]T(nil), xs...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// hotSequence repeats the hot set with exact Zipf(s) frequencies — rank
// k is requested round(n·(k+1)^-s / H) times — in the seed's order. Exact
// frequencies make the request multiset, and so decided_ratio, identical
// for every seed.
func hotSequence(hot []*item, n int, seed int64) []*item {
	var norm float64
	for k := range hot {
		norm += math.Pow(float64(k+1), -hotZipfS)
	}
	var seq []*item
	for k, it := range hot {
		c := max(1, int(math.Round(float64(n)*math.Pow(float64(k+1), -hotZipfS)/norm)))
		for i := 0; i < c; i++ {
			seq = append(seq, it)
		}
	}
	return shuffled(seq, seed)
}

// solveBody is the /v1/solve request body for it under w's mode.
func solveBody(w *workload, it *item) []byte {
	b, err := json.Marshal(server.SolveRequest{
		Constraint: it.script, Mode: w.mode, TimeoutMS: timeoutMS, Deterministic: true, Over: w.over,
	})
	if err != nil {
		panic(err) // a struct of strings, ints and bools always marshals
	}
	return b
}

// step is one session operation.
type step struct {
	op   string // "assert", "push", "pop" or "check"
	body string // SMT-LIB commands for "assert"
	// check is the check's verdict item: the visible assertion set the
	// bench tracked, which the oracle evaluates models against.
	check *item
}

// conversation is one /v1/session lifetime: create, steps, delete.
type conversation struct {
	name  string
	steps []step
}

func (cv *conversation) checks() int {
	n := 0
	for _, s := range cv.steps {
		if s.op == "check" {
			n++
		}
	}
	return n
}

// convBuilder tracks a conversation's visible assertion set exactly as
// the server's session does, so every check carries the constraint its
// models must satisfy.
type convBuilder struct {
	cv     conversation
	st     *smt.ScriptState
	nCheck int
}

func newConvBuilder(name string) *convBuilder {
	return &convBuilder{cv: conversation{name: name}, st: smt.NewScriptState()}
}

func (b *convBuilder) assert(src string) error {
	if err := b.st.Parse(src, nil); err != nil {
		return fmt.Errorf("%s: %w", b.cv.name, err)
	}
	b.cv.steps = append(b.cv.steps, step{op: "assert", body: src})
	return nil
}

func (b *convBuilder) push() error {
	b.cv.steps = append(b.cv.steps, step{op: "push"})
	return b.st.Push(1)
}

func (b *convBuilder) pop() error {
	b.cv.steps = append(b.cv.steps, step{op: "pop"})
	return b.st.Pop(1)
}

func (b *convBuilder) check(planted bool) {
	vis := b.st.Constraint()
	it := newItem(fmt.Sprintf("%s#%d", b.cv.name, b.nCheck), vis.Logic, "session", vis, planted)
	b.nCheck++
	b.cv.steps = append(b.cv.steps, step{op: "check", check: it})
}

// probe issues probesPerConversation per-variable bound probes over the
// visible integer variables, each inside its own scope, then the final
// check of the base. A probe bounds a variable on the side away from
// zero (x <= k with k in [0, 60], x >= k with k in [-60, 0]): most keep
// the previous model, so the check is answered by model reuse, and the
// rest force an incremental re-solve. The bounds are drawn from the
// conversation's name, so a conversation is the same whatever else the
// corpus holds.
func (b *convBuilder) probe(planted bool) error {
	h := fnv.New64a()
	h.Write([]byte(b.cv.name))
	rng := rand.New(rand.NewSource(corpusSeed ^ int64(h.Sum64())))
	var vars []string
	for _, v := range b.st.Constraint().Vars {
		if v.Sort.Kind == smt.KindInt {
			vars = append(vars, v.Name)
		}
	}
	for j := 0; j < probesPerConversation && len(vars) > 0; j++ {
		op := "<="
		if j%2 == 1 {
			op = ">="
		}
		k := rng.Intn(61)
		if op == ">=" {
			k = -k
		}
		bound := fmt.Sprint(k)
		if bound[0] == '-' {
			bound = "(- " + bound[1:] + ")"
		}
		if err := b.push(); err != nil {
			return err
		}
		if err := b.assert(fmt.Sprintf("(assert (%s %s %s))", op, vars[j%len(vars)], bound)); err != nil {
			return err
		}
		b.check(false)
		if err := b.pop(); err != nil {
			return err
		}
	}
	b.check(planted)
	return nil
}

// baseText is c as SMT-LIB commands without the trailing check-sat (the
// session's assert endpoint takes no checks).
func baseText(c *smt.Constraint) string {
	return strings.TrimSuffix(c.Script(), "(check-sat)\n")
}

// sessionCorpus is session-probe's conversations at the given number of
// units: the incremental scripts of internal/session replayed command by
// command (each check-sat becomes a check), and planted-sat benchgen
// QF_NIA and QF_LIA bases, every conversation closed by bound probes and a
// final check. Bases are planted-sat because a verification client probes
// feasible states, and so that an unsat on a base is an oracle failure;
// unsat and budget-bound constraints reach the unbounded engines in the
// portfolio workloads instead. The scripts come first and join the first
// unit only.
func sessionCorpus(root string, units int) ([]*conversation, error) {
	var out []*conversation
	files, err := filepath.Glob(filepath.Join(root, "internal", "session", "testdata", "sessions", "*.smt2"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		script, err := smt.ParseScriptCommands(string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		b := newConvBuilder("script/" + strings.TrimSuffix(filepath.Base(f), ".smt2"))
		var pending []string
		flush := func() error {
			if len(pending) == 0 {
				return nil
			}
			err := b.assert(strings.Join(pending, "\n"))
			pending = nil
			return err
		}
		for _, cmd := range script.Commands {
			switch cmd.Kind {
			case smt.CmdCheckSat:
				if err := flush(); err != nil {
					return nil, err
				}
				b.check(false)
			case smt.CmdGetValue, smt.CmdEcho, smt.CmdExit:
			default:
				pending = append(pending, cmd.String())
			}
		}
		if err := flush(); err != nil {
			return nil, err
		}
		if err := b.probe(false); err != nil {
			return nil, err
		}
		out = append(out, &b.cv)
	}
	for _, m := range []struct {
		logic string
		n     int
	}{{"QF_NIA", 7}, {"QF_LIA", 4}} {
		// Under half of an NIA or LIA suite is planted; draw enough to pick
		// from (Suite is prefix-stable, so the picks never change).
		insts, err := benchgen.Suite(m.logic, 6*m.n*units, corpusSeed)
		if err != nil {
			return nil, err
		}
		taken := 0
		for _, in := range insts {
			if !in.PlantedSat || taken == m.n*units {
				continue
			}
			taken++
			b := newConvBuilder(m.logic + "/" + in.Name)
			if err := b.assert(baseText(in.Constraint)); err != nil {
				return nil, err
			}
			if err := b.probe(true); err != nil {
				return nil, err
			}
			out = append(out, &b.cv)
		}
		if taken < m.n*units {
			return nil, fmt.Errorf("only %d planted %s bases", taken, m.logic)
		}
	}
	return out, nil
}
