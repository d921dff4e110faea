package main

import (
	"context"
	"fmt"
	"time"

	"staub/bench/internal/stats"
	"staub/internal/bitblast"
	"staub/internal/core"
	"staub/internal/engine"
	"staub/internal/pipeline"
	"staub/internal/sat"
	"staub/internal/server"
	"staub/internal/session"
	"staub/internal/smt"
	"staub/internal/solver"
	"staub/internal/status"
)

// The traced run replays a fixed sample of a workload single-threaded
// and times the calls into each layer's public functions from here, the
// bench's own code; nothing inside the program is instrumented. Every
// layer is measured on every workload's sample, so a per-layer number
// always has a workload it belongs to.

// nominalNsPerUnit is the virtual-time calibration every engine's work
// units are charged at (solver.UnitsPerSecond).
const nominalNsPerUnit = float64(time.Second) / solver.UnitsPerSecond

// driftFlag is the calibration drift past which an engine is flagged.
const driftFlag = 2.0

// calibPerLogic is how many corpus instances of each logic the engine
// calibration solves.
const calibPerLogic = 6

// sessionSample bounds the one-check sessions the traced run opens for a
// workload that is not made of sessions: enough for the check path's
// numbers, without doubling the run on the session fallback's budget.
const sessionSample = 16

// calib is one engine's row of the calibration table.
type calib struct {
	Engine    string  `json:"engine"`
	Solves    int     `json:"solves"`
	Work      int64   `json:"work_units"`
	WallMS    float64 `json:"wall_ms"`
	NsPerUnit float64 `json:"ns_per_unit"`
	Drift     float64 `json:"drift"`
	Flagged   bool    `json:"flagged"`
}

// calibEngines are the engines the calibration table reports, bounded
// ones first.
var calibEngines = []string{"bitblast", "fpsearch", "intsolver", "realsolver"}

// leg is one standalone portfolio leg's run on one constraint.
type leg struct {
	ms float64
	st status.Status
}

// replayed is one traced chain execution.
type replayed struct {
	st    *pipeline.State
	walls map[string]time.Duration // per pass that ran, from its span
	total time.Duration
}

// replay runs the chain a pipeline request assembles — the Figure 3
// chain, or with over the over-approximating one seeded at DirExact as
// pipeline.RunOverApprox seeds it — in one traced pipeline.Exec, so the
// chain stops wherever the pipeline's own rule stops it, and reads each
// pass's wall time from its span. The state keeps what the passes
// produced (the bounded form, the solver result) for the layers below.
func replay(ctx context.Context, c *smt.Constraint, over bool) replayed {
	cfg := pipelineConfig(over)
	cfg.Trace = true
	st := pipeline.NewState(ctx, c, cfg, pipeline.BackstopDeadline(cfg.Timeout), nil)
	names := pipeline.Figure3PassNames(st.Cfg)
	if over {
		names, st.Direction = pipeline.OverApproxPassNames(st.Cfg), pipeline.DirExact
	}
	t0 := time.Now()
	pipeline.Exec(st, pipeline.MustPasses(names...))
	r := replayed{st: st, walls: map[string]time.Duration{}, total: time.Since(t0)}
	for _, sp := range st.Res.Trace {
		r.walls[sp.Pass] += sp.Wall
	}
	st.Res.Total = st.Res.TTrans + st.Res.TPost + st.Res.TCheck
	return r
}

// unboundedSolve is the portfolio's unbounded leg on its own: the
// unmodified solver on the original constraint under the request budget.
func unboundedSolve(ctx context.Context, c *smt.Constraint) solver.Result {
	return solver.Solve(c, solver.Options{
		Ctx: ctx, Deadline: pipeline.BackstopDeadline(timeout),
		WorkBudget: solver.WorkBudgetFor(timeout), Profile: solver.Prima,
	})
}

// pipelineConfig is the configuration the server builds for a
// deterministic request with the shared settings.
func pipelineConfig(over bool) core.Config {
	return core.Config{Timeout: timeout, Profile: solver.Prima, Deterministic: true, OverApprox: over}
}

// jobFor is the engine job the server builds for a request of w about c.
func jobFor(w *workload, c *smt.Constraint) engine.Job {
	j := engine.Job{Kind: engine.KindPipeline, Constraint: c, Config: pipelineConfig(w.over)}
	if w.mode == "portfolio" {
		j.Kind = engine.KindPortfolio
	}
	return j
}

// sessionConfig is the session configuration the server builds for
// sessionCreateBody.
func sessionConfig() session.Config {
	return session.Config{Timeout: timeout, Profile: solver.Prima, Deterministic: true, MemoryBudget: 64 << 20}
}

// acc accumulates one per-layer quantity.
type acc struct {
	xs  []float64
	sum float64
}

func (a *acc) add(x float64) { a.xs = append(a.xs, x); a.sum += x }

func (a *acc) mean() float64 {
	if len(a.xs) == 0 {
		return 0
	}
	return a.sum / float64(len(a.xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func us(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }
func msf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tracer holds what the traced run needs and the metrics it produces.
type tracer struct {
	ctx    context.Context
	w      *workload
	srv    *server.Server
	base   string
	sample []*item
	convs  []*conversation // session-probe: the conversations the sample's checks come from
	m      map[string]metric
}

func (t *tracer) set(name, unit string, v float64) { t.m[name] = metric{Value: v, Unit: unit} }

// replayWorkload is the workload requests of the sample are re-sent as:
// session checks have no /v1/solve form, so they go as pipeline solves.
func (t *tracer) replayWorkload() *workload {
	if t.w.kind == kindSession {
		return &workload{name: t.w.name, mode: "pipeline"}
	}
	return t.w
}

// traceLayers runs the traced replay and returns the per-layer metrics
// and the engine calibration table.
func traceLayers(ctx context.Context, w *workload, srv *server.Server, base string, sample []*item, convs []*conversation, calibSet []*item) (map[string]metric, []calib, error) {
	t := &tracer{ctx: ctx, w: w, srv: srv, base: base, sample: sample, convs: convs, m: map[string]metric{}}
	rw := t.replayWorkload()

	// server, smt, engine: the serving path of a cache hit.
	hitRTT, err := t.hitRTT(rw)
	if err != nil {
		return nil, nil, err
	}
	var parse, key, hit acc
	parsed := make([]*smt.Constraint, len(sample))
	for i, it := range sample {
		t0 := time.Now()
		c, err := smt.ParseScript(it.script)
		parse.add(us(time.Since(t0)))
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", it.name, err)
		}
		parsed[i] = c
		j := jobFor(rw, c)
		t0 = time.Now()
		_ = j.Key()
		key.add(us(time.Since(t0)))
		t0 = time.Now()
		res := srv.Engine().Solve(ctx, j)
		d := time.Since(t0)
		if !res.CacheHit {
			return nil, nil, fmt.Errorf("%s: engine solve after a served request missed the cache", it.name)
		}
		hit.add(us(d))
	}
	t.set("server.hit_rtt_us", "us", stats.Median(hitRTT.xs))
	t.set("smt.parse_us", "us", stats.Median(parse.xs))
	t.set("engine.key_us", "us", stats.Median(key.xs))
	t.set("engine.hit_us", "us", stats.Median(hit.xs))

	seq := t.pipelineLayer(parsed)
	over := t.overLayer(parsed)
	race := t.portfolioLayer(parsed, seq, over)
	checks, err := t.sessionLayer(parsed)
	if err != nil {
		return nil, nil, err
	}

	// trace.coverage: the summed layer times of the sample's serving path
	// over the single-client HTTP round trips of the same requests (both
	// in microseconds for hits, milliseconds otherwise).
	var layers, rtt float64
	switch {
	case w.kind == kindHot:
		layers, rtt = parse.sum+key.sum+hit.sum, hitRTT.sum
	case w.kind == kindSession:
		layers = checks.sum
		if rtt, err = t.sessionRTT(); err != nil {
			return nil, nil, err
		}
	default:
		served := race.sum
		if w.mode == "pipeline" {
			served = 0
			for _, l := range seq {
				served += l.ms
			}
		}
		layers = (parse.sum+key.sum)/1000 + served
		if rtt, err = t.coldRTT(); err != nil {
			return nil, nil, err
		}
	}
	t.set("trace.coverage", "ratio", ratio(layers, rtt))

	table := calibrate(ctx, calibSet)
	for _, row := range table {
		t.set("solver."+row.Engine+".ns_per_unit", "ns", row.NsPerUnit)
		t.set("solver."+row.Engine+".drift", "ratio", row.Drift)
	}
	return t.m, table, nil
}

// hitRTT sends every sample request twice over one connection — the
// first fills the cache when the workload has not — and times the second.
func (t *tracer) hitRTT(rw *workload) (acc, error) {
	c := newClient(t.base)
	defer c.close()
	var a acc
	for _, it := range t.sample {
		body := solveBody(rw, it)
		if rec := c.solve(it, body); rec.failed {
			return a, fmt.Errorf("traced replay: %s", c.fails[len(c.fails)-1])
		}
		rec := c.solve(it, body)
		if rec.failed {
			return a, fmt.Errorf("traced replay: %s", c.fails[len(c.fails)-1])
		}
		if !rec.cacheHit {
			return a, fmt.Errorf("traced replay: %s: repeated request missed the cache", it.name)
		}
		a.add(us(rec.lat))
	}
	return a, nil
}

// pipelineLayer replays the Figure 3 chain pass by pass on every sample
// constraint, timing each pass, re-encoding bit-blastable bounded forms on
// their own, and reading the SAT core's counters around the replay. The
// chains are the portfolio's standalone sequential leg.
func (t *tracer) pipelineLayer(parsed []*smt.Constraint) []leg {
	passMS := map[string]*acc{}
	for _, n := range pipeline.Figure3PassNames(pipelineConfig(false).WithDefaults()) {
		passMS[n] = &acc{}
	}
	var legs []leg
	var nodes, work, encode, vars, clauses acc
	var verified, bvSolves float64
	var bvSolveWall time.Duration
	var blastable []*smt.Constraint
	sat0 := solver.SATMetricsSnapshot()
	for _, c := range parsed {
		r := replay(t.ctx, c, false)
		legs = append(legs, leg{msf(r.total), r.st.Res.Status})
		for n, d := range r.walls {
			passMS[n].add(msf(d))
		}
		st := r.st
		if st.Bounded != nil {
			nodes.add(float64(st.Bounded.NumNodes()))
			if k := solver.ClassifyConstraint(st.Bounded); k == solver.KindBV || k == solver.KindBool {
				blastable = append(blastable, st.Bounded)
			}
		}
		if d, ok := r.walls[pipeline.PassBoundedSolve]; ok {
			work.add(float64(st.Res.SolveWork))
			if st.Solve.Engine == "bitblast" {
				bvSolves++
				bvSolveWall += d
			}
		}
		if _, ok := r.walls[pipeline.PassVerifyModel]; ok && st.Res.Outcome == pipeline.OutcomeVerified {
			verified++
		}
	}
	sat1 := solver.SATMetricsSnapshot()
	// Bit-blasting timed on its own, outside the solve it is part of.
	for _, b := range blastable {
		s := sat.New()
		t0 := time.Now()
		err := bitblast.New(s).Encode(b)
		d := time.Since(t0)
		if err != nil {
			continue
		}
		encode.add(msf(d))
		vars.add(float64(s.NumVars()))
		clauses.add(float64(s.NumClauses()))
	}
	for _, n := range []string{pipeline.PassInferBounds, pipeline.PassTranslate, pipeline.PassBoundedSolve, pipeline.PassVerifyModel} {
		t.set("pass."+n+".ms", "ms", passMS[n].mean())
	}
	t.set("pass.translate.nodes", "count", nodes.mean())
	t.set("pass.bounded-solve.work", "units", work.mean())
	t.set("pass.verify-model.verified_ratio", "ratio", ratio(verified, float64(len(passMS[pipeline.PassVerifyModel].xs))))
	t.set("bitblast.encode_ms", "ms", encode.mean())
	t.set("bitblast.vars", "count", vars.mean())
	t.set("bitblast.clauses", "count", clauses.mean())
	props := float64(sat1["propagations"] - sat0["propagations"])
	t.set("sat.propagations", "count", ratio(props, bvSolves))
	t.set("sat.conflicts", "count", ratio(float64(sat1["conflicts"]-sat0["conflicts"]), bvSolves))
	t.set("sat.ns_per_propagation", "ns", ratio(float64(bvSolveWall), props))
	return legs
}

// overLayer replays the over-approximating chain pass by pass (seeded at
// DirExact, as pipeline.RunOverApprox does) and classifies each run the
// way the over-approximation counters do. The chains are the portfolio's
// standalone over leg.
func (t *tracer) overLayer(parsed []*smt.Constraint) []leg {
	var legs []leg
	var lin, apriori acc
	var soundUnsat, reverts float64
	for _, c := range parsed {
		r := replay(t.ctx, c, true)
		legs = append(legs, leg{msf(r.total), r.st.Res.Status})
		if d, ok := r.walls[pipeline.PassLinearizeNIA]; ok {
			lin.add(msf(d))
		}
		if d, ok := r.walls[pipeline.PassInferApriori]; ok {
			apriori.add(msf(d))
		}
		switch {
		case r.st.Res.Status == status.Unsat:
			soundUnsat++
		case r.st.Res.Outcome != pipeline.OutcomeVerified:
			reverts++
		}
	}
	n := float64(len(parsed))
	t.set("pass.linearize-nia.ms", "ms", lin.mean())
	t.set("pass.infer-apriori-bounds.ms", "ms", apriori.mean())
	t.set("overapprox.sound_unsat_ratio", "ratio", ratio(soundUnsat, n))
	t.set("overapprox.revert_ratio", "ratio", ratio(reverts, n))
	return legs
}

// portfolioLayer races every sample constraint with core.RunPortfolio
// (every leg, over included) and compares the race with its fastest
// standalone leg that reaches the race's verdict: the unbounded solver on
// the original, and the sequential and over chains replayed above. A race
// nobody decides waits for its slowest leg. It returns the race times.
func (t *tracer) portfolioLayer(parsed []*smt.Constraint, seq, over []leg) acc {
	cfg := pipelineConfig(true)
	var race, best acc
	var decided, winUnbounded, winStaub, winOver float64
	for i, c := range parsed {
		t0 := time.Now()
		unb := unboundedSolve(t.ctx, c)
		legs := []leg{{msf(time.Since(t0)), unb.Status}, seq[i], over[i]}
		// Which verdicts each leg may win with: the sequential leg only a
		// verified sat, the others any definitive verdict.
		wins := []bool{unb.Status != status.Unknown, seq[i].st == status.Sat, over[i].st != status.Unknown}

		t0 = time.Now()
		p := core.RunPortfolio(t.ctx, c, cfg)
		raceMS := msf(time.Since(t0))
		race.add(raceMS)

		b := 0.0
		for k, l := range legs {
			switch {
			case p.Status == status.Unknown:
				b = max(b, l.ms)
			case wins[k] && l.st == p.Status && (b == 0 || l.ms < b):
				b = l.ms
			}
		}
		if b == 0 { // only a leg that decided inside the race reached its verdict
			b = raceMS
		}
		best.add(b)
		if p.Status != status.Unknown {
			decided++
			switch {
			case p.FromOver:
				winOver++
			case p.FromSTAUB:
				winStaub++
			default:
				winUnbounded++
			}
		}
	}
	t.set("portfolio.race_ms", "ms", race.mean())
	t.set("portfolio.best_leg_ms", "ms", best.mean())
	t.set("portfolio.race_overhead", "ratio", ratio(race.sum, best.sum))
	t.set("portfolio.win.unbounded", "ratio", ratio(winUnbounded, decided))
	t.set("portfolio.win.staub", "ratio", ratio(winStaub, decided))
	t.set("portfolio.win.over", "ratio", ratio(winOver, decided))
	return race
}

// sessionLayer runs session checks in process: session-probe's sample
// conversations step by step, every other workload's sample constraints
// as one-check sessions. It returns the check times.
func (t *tracer) sessionLayer(parsed []*smt.Constraint) (acc, error) {
	var checkMS, work acc
	var memo, reuse, rebuilds, rounds float64
	ref0 := pipeline.RefineMetricsSnapshot()
	observe := func(s *session.Session) error {
		t0 := time.Now()
		cr, err := s.Check(t.ctx)
		checkMS.add(msf(time.Since(t0)))
		if err != nil {
			return err
		}
		work.add(float64(cr.Work))
		if cr.Memoized {
			memo++
		}
		if cr.ModelReused {
			reuse++
		}
		if cr.Rebuilt {
			rebuilds++
		}
		rounds += float64(cr.Refined)
		return nil
	}
	if t.w.kind == kindSession {
		for _, cv := range t.convs {
			s := session.New(sessionConfig())
			for _, st := range cv.steps {
				var err error
				switch st.op {
				case "assert":
					err = s.Feed(st.body)
				case "push":
					err = s.Push(1)
				case "pop":
					err = s.Pop(1)
				case "check":
					err = observe(s)
				}
				if err != nil {
					return checkMS, fmt.Errorf("%s: %w", cv.name, err)
				}
			}
			s.Close()
		}
	} else {
		for i, c := range parsed[:min(sessionSample, len(parsed))] {
			s := session.New(sessionConfig())
			if err := s.Feed(baseText(c)); err != nil {
				return checkMS, fmt.Errorf("%s: %w", t.sample[i].name, err)
			}
			if err := observe(s); err != nil {
				return checkMS, err
			}
			s.Close()
		}
	}
	ref1 := pipeline.RefineMetricsSnapshot()
	n := float64(len(checkMS.xs))
	t.set("session.check_ms", "ms", checkMS.mean())
	t.set("session.work_per_check", "units", work.mean())
	t.set("session.memo_hit_ratio", "ratio", ratio(memo, n))
	t.set("session.model_reuse_ratio", "ratio", ratio(reuse, n))
	t.set("session.rebuilds", "count", rebuilds)
	t.set("refine.rounds_per_check", "count", ratio(rounds, n))
	hits := float64(ref1["gate_hits"] - ref0["gate_hits"])
	misses := float64(ref1["gate_misses"] - ref0["gate_misses"])
	t.set("refine.gate_hit_ratio", "ratio", ratio(hits, hits+misses))
	return checkMS, nil
}

// coldRTT sends the sample single-client to a fresh server, every request
// a cache miss, and returns the summed round trips in milliseconds.
func (t *tracer) coldRTT() (float64, error) {
	srv, ts := startServer()
	defer stopServer(srv, ts)
	c := newClient(ts.URL)
	defer c.close()
	var sum float64
	for _, it := range t.sample {
		rec := c.solve(it, solveBody(t.w, it))
		if rec.failed {
			return 0, fmt.Errorf("traced replay: %s", c.fails[len(c.fails)-1])
		}
		sum += msf(rec.lat)
	}
	return sum, nil
}

// sessionRTT replays the sample conversations single-client over HTTP and
// returns the summed check round trips in milliseconds.
func (t *tracer) sessionRTT() (float64, error) {
	var p phase
	var recs []record
	runClosedLoop(t.base, len(t.convs), 1, false, func(c *client, i int) {
		r := make([]record, t.convs[i].checks())
		c.converse(t.convs[i], r)
		recs = append(recs, r...)
	}, &p)
	if len(p.opFails) > 0 {
		return 0, fmt.Errorf("traced replay: %s", p.opFails[0])
	}
	var sum float64
	for _, r := range recs {
		sum += msf(r.lat)
	}
	return sum, nil
}

// calibrate measures wall nanoseconds per work unit for every engine on a
// fixed calibration set: each constraint's unbounded solve (intsolver,
// realsolver) and its Figure 3 bounded solve (bitblast, fpsearch).
// Elapsed is the engine's own clock, set-up and encoding included.
func calibrate(ctx context.Context, set []*item) []calib {
	type sum struct {
		n    int
		work int64
		wall time.Duration
	}
	sums := map[string]*sum{}
	add := func(r solver.Result) {
		s := sums[r.Engine]
		if s == nil {
			s = &sum{}
			sums[r.Engine] = s
		}
		s.n++
		s.work += r.Work
		s.wall += r.Elapsed
	}
	for _, it := range set {
		add(unboundedSolve(ctx, it.c))
		if r := replay(ctx, it.c, false); r.walls[pipeline.PassBoundedSolve] > 0 {
			add(r.st.Solve)
		}
	}
	var out []calib
	for _, e := range calibEngines {
		row := calib{Engine: e}
		if s := sums[e]; s != nil && s.work > 0 {
			row.Solves, row.Work, row.WallMS = s.n, s.work, msf(s.wall)
			row.NsPerUnit = float64(s.wall) / float64(s.work)
			row.Drift = row.NsPerUnit / nominalNsPerUnit
			row.Flagged = row.Drift > driftFlag
		}
		out = append(out, row)
	}
	return out
}

// calibrationSet is the first n benchgen instances of each logic in the
// corpus.
func calibrationSet(corpus []*item, n int) []*item {
	per := map[string]int{}
	var out []*item
	for _, it := range corpus {
		if per[it.logic] < n && it.family != "refine" && it.family != "testdata" {
			per[it.logic]++
			out = append(out, it)
		}
	}
	return out
}
