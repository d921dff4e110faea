// Package cube implements cube-and-conquer for the bounded (bit-blasted)
// constraints STAUB produces: a splitter picks the k most active
// variables after a short probing solve and emits 2^k assumption cubes;
// a conquer driver races the cubes with first-answer-wins cancellation
// for sat, all-cubes-unsat aggregation for unsat (each refuted cube
// contributes its blocking clause to the survivors), and learned-clause
// exchange between legs filtered by LBD.
//
// Cubes are encoded as SolveAssuming assumptions on replicas of one
// solver (sat.Solver.Clone), so splitting costs no re-encoding and every
// replica shares the variable numbering — which is what makes clause
// exchange between legs meaningful. Learned clauses derive by resolution
// from the clause database alone (assumptions are reason-less decisions
// that analysis never resolves away), so a clause learned under one cube
// holds for the base formula and is sound to import under any other.
//
// Two drivers implement the race. The deterministic driver interleaves
// legs on one goroutine in fixed round-robin quanta and charges a
// virtual-time makespan as if Jobs workers had run them — the worker
// count enters only that arithmetic, never the execution order, so
// verdicts, models and work are byte-identical for every Jobs value.
// The wall-clock driver runs legs on real goroutines with Interrupt
// cancellation. Any internal fault (chaos sites cube:split, cube:leg)
// falls back to finishing the sequential solve on the base solver, so a
// faulted cube run degrades in speed, never in verdict.
package cube

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"staub/internal/bitblast"
	"staub/internal/chaos"
	"staub/internal/eval"
	"staub/internal/pipeline"
	"staub/internal/sat"
	"staub/internal/smt"
	"staub/internal/solver"
	"staub/internal/status"
)

// quantumProps is the deterministic driver's time slice: how many
// propagations one leg runs before the scheduler rotates. Large enough
// to amortize the assumption re-propagation each SolveAssuming re-entry
// pays (1000 work units at the cost model's 40 propagations per unit).
const quantumProps = 40_000

// probeConflicts bounds the activity-warming probe solve.
const probeConflicts = 500

// shareLBD is the glue cutoff for inter-leg clause exchange: legs export
// learned clauses with LBD at most this value (the classic glue tier).
const shareLBD = 2

// Options configures a cube-and-conquer solve.
type Options struct {
	// Vars is k: the splitter takes the top-k variables by VSIDS
	// activity and emits 2^k cubes. Values below 1 are rejected by the
	// caller (pipeline keeps the sequential pass instead).
	Vars int
	// Jobs bounds concurrent legs (≤ 0 selects GOMAXPROCS). Under
	// Deterministic it only enters the virtual-time makespan.
	Jobs int
	// WorkBudget, when positive, bounds every leg (and the probe) by a
	// deterministic work-unit count, exactly as the sequential bounded
	// solve is bounded.
	WorkBudget int64
	// Deadline aborts solving when passed (zero: none).
	Deadline time.Time
	// Interrupt aborts the whole race when set (nil: none).
	Interrupt *atomic.Bool
	// Deterministic selects the virtual-time driver.
	Deterministic bool
}

func (o Options) withDefaults() Options {
	if o.Jobs <= 0 {
		o.Jobs = runtime.GOMAXPROCS(0)
	}
	return o
}

// Result is a completed cube-and-conquer solve.
type Result struct {
	Status status.Status
	Model  eval.Assignment
	// Work is the total effort in work units: the probe plus the sum
	// over every leg, including partial work of cancelled legs.
	Work int64
	// Makespan is the deterministic driver's virtual-time critical path
	// at Jobs workers: probe (sequential prefix) plus per-round
	// max(longest leg, ⌈total/Jobs⌉). In wall-clock mode it equals Work.
	Makespan int64
	// TimedOut reports budget, deadline or interrupt exhaustion.
	TimedOut bool
	// Cubes is the number of cubes raced (0 when the probe decided or
	// splitting was impossible).
	Cubes int
	// SatCube is the index of the winning cube after Sat (-1 otherwise).
	SatCube int
	// UnsatCubes counts refuted cubes.
	UnsatCubes int
	// Shared and Imported count clauses exported by legs and adopted by
	// sibling legs (each export reaches every live sibling).
	Shared, Imported int64
	// Fault is the contained fault class (pipeline.Fault*) when a chaos
	// fault aborted cubing and the sequential fallback produced the
	// verdict; empty on a clean run.
	Fault string
}

// leg is one cube's solver replica and its accounting.
type leg struct {
	s       *sat.Solver
	cube    []sat.Lit
	pending []sat.SharedClause // deterministic driver: quantum export buffer
	props   int64              // propagations observed so far
	done    bool
	st      sat.Status
}

// Solve races 2^Vars assumption cubes of c (a boolean or bitvector
// constraint) and aggregates their verdicts. See the package comment for
// the protocol and the determinism argument.
func Solve(c *smt.Constraint, o Options) Result {
	o = o.withDefaults()
	cubeSolves.Inc()
	res := Result{SatCube: -1}

	base := sat.New()
	base.Deadline = o.Deadline
	if o.Interrupt != nil {
		base.SetInterrupt(o.Interrupt)
	}
	bl := bitblast.New(base)
	if err := bl.Encode(c); err != nil {
		// An interrupted encode is a cancelled solve, not an encoding
		// failure.
		res.Status = status.Unknown
		res.Work = 1
		res.TimedOut = errors.Is(err, bitblast.ErrInterrupted)
		return res
	}
	base.Preprocess()

	legCap := int64(0)
	if o.WorkBudget > 0 {
		legCap = o.WorkBudget * solver.SATWorkScale
	}

	// Probe: a short conflict-capped solve warming VSIDS activities for
	// the splitter. It runs the exact prefix of the sequential solve's
	// trajectory, so when it decides, the sequential path decides
	// identically.
	base.ConflictCap = probeConflicts
	base.PropagationCap = legCap
	probeSt := base.Solve()
	base.ConflictCap = 0
	probeProps := base.Stats.Propagations
	res.Work = probeProps / solver.SATWorkScale
	res.Makespan = res.Work
	if probeSt != sat.Unknown {
		cubeProbeDecides.Inc()
		return finish(&res, probeSt, bl, base)
	}
	if interrupted(o) || (legCap > 0 && probeProps >= legCap) {
		res.Status = status.Unknown
		res.TimedOut = true
		return res
	}

	// Split. A chaos fault here (or any fault below) aborts cubing and
	// the base solver finishes sequentially, so faults cost speed only.
	fault, extra := guardSite("cube:split", o)
	res.Work += extra
	if fault != "" {
		return fallback(&res, fault, bl, base, legCap)
	}
	vars := base.TopActiveVars(o.Vars)
	if len(vars) == 0 {
		// Nothing left to split on: the problem is (nearly) decided.
		return fallback(&res, "", bl, base, legCap)
	}
	numCubes := 1 << uint(len(vars))
	res.Cubes = numCubes

	legs := make([]leg, numCubes)
	for i := range legs {
		lits := make([]sat.Lit, len(vars))
		for j, v := range vars {
			if i&(1<<uint(j)) != 0 {
				lits[j] = sat.NegLit(v)
			} else {
				lits[j] = sat.PosLit(v)
			}
		}
		legs[i] = leg{s: base.Clone(), cube: lits}
		legs[i].s.ExportLBD = shareLBD
	}
	cubeLegs.Add(int64(numCubes))

	if o.Deterministic {
		fault = conquerVirtual(&res, legs, o, legCap)
	} else {
		fault = conquerParallel(&res, legs, o, legCap)
	}
	for i := range legs {
		res.Work += legs[i].props / solver.SATWorkScale
	}
	if !o.Deterministic {
		// Wall-clock mode has no virtual schedule; report the makespan as
		// the total effort, the conservative (sequential) reading.
		res.Makespan = res.Work
	}
	if fault != "" {
		return fallback(&res, fault, bl, base, legCap)
	}

	cubeSatLegs.Add(boolInt(res.SatCube >= 0))
	cubeUnsatLegs.Add(int64(res.UnsatCubes))
	cubeSharedClauses.Add(res.Shared)
	cubeImportedClauses.Add(res.Imported)

	switch {
	case res.SatCube >= 0:
		return finish(&res, sat.Sat, bl, legs[res.SatCube].s)
	case res.UnsatCubes == numCubes || res.Status == status.Unsat:
		// Every cube refuted (the cubes partition the assignment space),
		// or one leg refuted the base formula outright (empty core).
		res.Status = status.Unsat
		return res
	default:
		res.Status = status.Unknown
		res.TimedOut = true
		return res
	}
}

// conquerVirtual is the deterministic driver: fixed round-robin quanta
// over the legs, virtual-time makespan at o.Jobs workers. Returns a
// fault class if a chaos fault aborted the race.
func conquerVirtual(res *Result, legs []leg, o Options, legCap int64) (fault string) {
	defer recoverChaos(&fault)
	// Per-leg chaos check, once, at leg start — mirrors the wall-clock
	// driver checking the site once per spawned leg.
	for i := range legs {
		f, extra := checkSite("cube:leg", o, nil)
		res.Work += extra
		if f != "" {
			return f
		}
		lg := &legs[i]
		lg.s.Export = func(lits []sat.Lit, lbd int) {
			lg.pending = append(lg.pending, sat.SharedClause{Lits: lits, LBD: lbd})
		}
	}
	active := len(legs)
	var spanProps int64 // virtual critical path in propagations
	for active > 0 {
		var roundMax, roundSum int64
		stop := false
		for i := range legs {
			lg := &legs[i]
			if lg.done {
				continue
			}
			target := lg.s.Stats.Propagations + quantumProps
			if legCap > 0 && target > legCap {
				target = legCap
			}
			lg.s.PropagationCap = target
			st := lg.s.SolveAssuming(lg.cube...)
			delta := lg.s.Stats.Propagations - lg.props
			lg.props = lg.s.Stats.Propagations
			if delta > roundMax {
				roundMax = delta
			}
			roundSum += delta
			flushExports(res, legs, i)
			switch st {
			case sat.Sat:
				// First answer wins at a fixed (round, leg) order, so the
				// winner — and its model — is independent of o.Jobs.
				lg.done, lg.st = true, sat.Sat
				res.SatCube = i
				stop = true
			case sat.Unsat:
				lg.done, lg.st = true, sat.Unsat
				active--
				res.UnsatCubes++
				core := lg.s.FailedAssumptions()
				if len(core) == 0 {
					// Refuted without assumptions: the base formula is unsat.
					res.Status = status.Unsat
					stop = true
					break
				}
				broadcastBlocking(res, legs, i, core)
			default:
				if interrupted(o) {
					stop = true
					break
				}
				if legCap > 0 && lg.s.Stats.Propagations >= legCap {
					lg.done, lg.st = true, sat.Unknown
					active--
				}
			}
			if stop {
				break
			}
		}
		spanProps += roundCost(roundMax, roundSum, o.Jobs)
		if stop {
			break
		}
	}
	res.Makespan += spanProps / solver.SATWorkScale
	return ""
}

// conquerParallel is the wall-clock driver: one goroutine per leg, at
// most o.Jobs running, first answer interrupting the rest. It never
// leaks goroutines — every path waits for all legs to return.
func conquerParallel(res *Result, legs []leg, o Options, legCap int64) string {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		done     atomic.Bool
		fault    string
		shared   atomic.Int64
		imported atomic.Int64
	)
	interruptAll := func() {
		done.Store(true)
		for j := range legs {
			legs[j].s.Interrupt()
		}
	}
	for i := range legs {
		lg := &legs[i]
		lg.s.PropagationCap = legCap
		lg.s.Export = func(lits []sat.Lit, lbd int) {
			cls := []sat.SharedClause{{Lits: lits, LBD: lbd}}
			shared.Add(1)
			for j := range legs {
				if &legs[j] != lg {
					legs[j].s.ImportClauses(cls)
					imported.Add(1)
				}
			}
		}
	}
	sem := make(chan struct{}, o.Jobs)
	for i := range legs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lg := &legs[i]
			sem <- struct{}{}
			defer func() { <-sem }()
			defer func() {
				lg.props = lg.s.Stats.Propagations
				if r := recover(); r != nil {
					if _, ok := r.(chaos.Injected); !ok {
						panic(r)
					}
					mu.Lock()
					fault = pipeline.FaultPanic
					mu.Unlock()
					interruptAll()
				}
			}()
			if done.Load() {
				return
			}
			f, extra := checkSite("cube:leg", o, &done)
			if extra > 0 {
				mu.Lock()
				res.Work += extra
				mu.Unlock()
			}
			if f != "" {
				mu.Lock()
				fault = f
				mu.Unlock()
				interruptAll()
				return
			}
			st := lg.s.SolveAssuming(lg.cube...)
			mu.Lock()
			defer mu.Unlock()
			lg.st = st
			switch st {
			case sat.Sat:
				if res.SatCube < 0 && res.Status != status.Unsat {
					res.SatCube = i
					interruptAll()
				}
			case sat.Unsat:
				res.UnsatCubes++
				core := lg.s.FailedAssumptions()
				if len(core) == 0 {
					res.Status = status.Unsat
					interruptAll()
					return
				}
				blocking := make([]sat.Lit, len(core))
				for k, l := range core {
					blocking[k] = l.Not()
				}
				cls := []sat.SharedClause{{Lits: blocking, LBD: 1}}
				shared.Add(1)
				for j := range legs {
					if j != i {
						legs[j].s.ImportClauses(cls)
						imported.Add(1)
					}
				}
			}
		}(i)
	}
	wg.Wait()
	res.Shared += shared.Load()
	res.Imported += imported.Load()
	return fault
}

// flushExports distributes leg i's buffered glue clauses to every live
// sibling (deterministic driver only; the wall-clock driver fans out
// directly from the export hook).
func flushExports(res *Result, legs []leg, i int) {
	lg := &legs[i]
	if len(lg.pending) == 0 {
		return
	}
	for j := range legs {
		if j != i && !legs[j].done {
			legs[j].s.ImportClauses(lg.pending)
			res.Imported += int64(len(lg.pending))
		}
	}
	res.Shared += int64(len(lg.pending))
	lg.pending = lg.pending[:0]
}

// broadcastBlocking sends ¬core of a refuted cube to every live sibling;
// a sibling whose cube extends the refuted core dies at its next quantum
// entry, at level 0, without searching.
func broadcastBlocking(res *Result, legs []leg, i int, core []sat.Lit) {
	blocking := make([]sat.Lit, len(core))
	for k, l := range core {
		blocking[k] = l.Not()
	}
	cls := []sat.SharedClause{{Lits: blocking, LBD: 1}}
	for j := range legs {
		if j != i && !legs[j].done {
			legs[j].s.ImportClauses(cls)
			res.Imported++
		}
	}
	res.Shared++
}

// roundCost is one scheduling round's virtual-time cost at jobs workers:
// the LPT lower bound max(longest leg, ⌈total work/jobs⌉), in
// propagations.
func roundCost(roundMax, roundSum int64, jobs int) int64 {
	par := (roundSum + int64(jobs) - 1) / int64(jobs)
	if roundMax > par {
		return roundMax
	}
	return par
}

// fallback finishes the solve sequentially on the base solver after a
// fault (or an unsplittable instance): the race's partial work stays
// accounted, the verdict comes from the same code path the sequential
// pass runs.
func fallback(res *Result, fault string, bl *bitblast.Blaster, base *sat.Solver, legCap int64) Result {
	if fault != "" {
		res.Fault = fault
		cubeFallbacks.Inc()
	}
	before := base.Stats.Propagations
	base.PropagationCap = legCap
	st := base.Solve()
	res.Work += (base.Stats.Propagations - before) / solver.SATWorkScale
	res.Makespan = res.Work
	return finish(res, st, bl, base)
}

// finish classifies a sat.Status and extracts the model on Sat, reading
// variable values from the deciding solver (a leg replica or the base)
// through the shared encoding.
func finish(res *Result, st sat.Status, bl *bitblast.Blaster, s *sat.Solver) Result {
	switch st {
	case sat.Sat:
		res.Status = status.Sat
		res.Model = bl.ModelWith(s.Value)
	case sat.Unsat:
		res.Status = status.Unsat
	default:
		res.Status = status.Unknown
		res.TimedOut = true
	}
	if res.Work < 1 {
		res.Work = 1
	}
	if res.Makespan < 1 {
		res.Makespan = 1
	}
	return *res
}

// guardSite is checkSite with the panic fault class recovered in place,
// for call sites outside a driver's own recovery scope.
func guardSite(site string, o Options) (fault string, extraWork int64) {
	defer recoverChaos(&fault)
	return checkSite(site, o, nil)
}

// recoverChaos converts an injected chaos panic into the panic fault
// class; genuine panics keep propagating to the pass boundary.
func recoverChaos(fault *string) {
	if r := recover(); r != nil {
		if _, ok := r.(chaos.Injected); !ok {
			panic(r)
		}
		*fault = pipeline.FaultPanic
	}
}

// checkSite consults the chaos registry at site and translates an
// injected fault into the pipeline's fault taxonomy. Panic faults panic
// with chaos.Injected (the drivers recover them); stalls block until the
// cap or cancellation, then report; blowups inflate work and let the
// solve proceed.
func checkSite(site string, o Options, done *atomic.Bool) (fault string, extraWork int64) {
	switch chaos.At(site) {
	case chaos.FaultPassPanic:
		panic(chaos.Injected{Site: site})
	case chaos.FaultSolverStall:
		chaos.Stall(0, func() bool {
			if done != nil && done.Load() {
				return true
			}
			return interrupted(o)
		})
		return pipeline.FaultStall, 0
	case chaos.FaultTransientError:
		return pipeline.FaultTransient, 0
	case chaos.FaultBudgetBlowup:
		return "", chaos.BlowupWork()
	}
	return "", 0
}

func interrupted(o Options) bool {
	if o.Interrupt != nil && o.Interrupt.Load() {
		return true
	}
	return !o.Deadline.IsZero() && time.Now().After(o.Deadline)
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
