// Package pipeline is the staged pass framework behind STAUB. Every stage
// of the paper's Figure 3 pipeline (bound inference, translation,
// bounded solving, model verification) and
// of the §6.4 width-reduction pipeline is a named Pass with a uniform
// signature over a shared State; internal/core and internal/reduce are
// thin assemblies of those passes pulled from one registry. The framework
// owns the run drivers (single pass chain, §6.2 fresh and incremental
// refinement loops), the unified Outcome/Result taxonomy, and per-stage
// observability: cheap aggregate metrics on every pass execution, plus an
// ordered span trace per run when Config.Trace is set.
package pipeline

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"staub/internal/chaos"
	"staub/internal/eval"
	"staub/internal/smt"
	"staub/internal/solver"
	"staub/internal/status"
	"staub/internal/translate"
)

// Config controls a STAUB run.
type Config struct {
	// FixedWidth, when positive, bypasses abstract interpretation and
	// uses the given width for every constraint (the paper's fixed-width
	// ablation).
	FixedWidth int
	// Timeout is the per-solve budget (default 2s).
	Timeout time.Duration
	// Profile selects the underlying solver profile.
	Profile solver.Profile
	// RefineRounds enables the iterative bound refinement of the paper's
	// Section 6.2: when the bounded constraint is unsat (bounds possibly
	// insufficient), the width is doubled and the pipeline retried up to
	// this many times within the same overall timeout. Zero disables
	// refinement (the paper's evaluated configuration).
	RefineRounds int
	// FreshRefine forces refinement rounds to rebuild the whole pipeline
	// from scratch each round, instead of reusing one incremental
	// bit-blasting session across rounds. The fresh loop is the reference
	// semantics; it exists for differential testing and benchmarking.
	FreshRefine bool
	// StartWidth, when positive, overrides the inferred round-0 bitvector
	// width (UppSAT-style refinement-strategy knob: sessions serving cheap
	// interactive probes start narrow, deep batch refinement starts at the
	// inferred bound). Unlike FixedWidth it does not disable refinement:
	// later rounds still widen by WidthStep.
	StartWidth int
	// WidthStep is the width multiplier between refinement rounds
	// (default 2, the paper's §6.2 doubling schedule; values below 2 are
	// treated as 2).
	WidthStep int
	// Seed perturbs randomized engines.
	Seed int64
	// Deterministic switches the pipeline to virtual-time accounting: the
	// bounded solve runs under a work budget derived from Timeout instead
	// of a wall-clock deadline (the clock is kept only as a generous
	// backstop), and every reported duration is a deterministic function
	// of work done — identical across runs, machines and worker counts.
	// The experiment harness measures in this mode.
	Deterministic bool
	// Trace records an ordered per-stage span list into Result.Trace.
	// Off by default: the hot path pays only atomic aggregate counters.
	Trace bool
	// CubeVars, when positive, replaces the bounded-solve pass with the
	// cube-and-conquer pass (internal/cube): the bounded constraint is
	// split into 2^CubeVars assumption cubes over the most active
	// variables and the cubes are raced with LBD-filtered clause sharing.
	// Zero keeps the sequential solve.
	CubeVars int
	// OverApprox switches Run to the over-approximating assembly
	// (residue, linearize-nia, infer-apriori-bounds, translate,
	// bounded-solve, verify-model): integer equalities are refuted by
	// residues, nonlinear products are abstracted away with eager axiom
	// instantiation and widths are certified complete from a-priori
	// bounds, so a bounded-unsat outcome is a sound unsat for the
	// original. The portfolio races it as its over leg when set.
	// FixedWidth, RefineRounds and CubeVars do not apply to this
	// assembly: a fixed or narrowed width would break the completeness
	// certificate the sound unsat rests on.
	OverApprox bool
}

// WithDefaults fills unset fields with their defaults.
func (c Config) WithDefaults() Config {
	if c.Timeout == 0 {
		c.Timeout = 2 * time.Second
	}
	if c.WidthStep == 0 {
		c.WidthStep = 2
	}
	return c
}

// widthStep is the effective between-round width multiplier.
func (c Config) widthStep() int {
	if c.WidthStep < 2 {
		return 2
	}
	return c.WidthStep
}

// Verdict is a pass's control-flow decision.
type Verdict int

// Pass verdicts.
const (
	// Continue hands the state to the next pass in the chain.
	Continue Verdict = iota
	// Stop ends the chain; the state's Result is final.
	Stop
)

// State is the shared blackboard a pass chain operates on. The drivers
// seed it with the original constraint and run parameters; each pass reads
// what earlier passes produced and writes what later passes need. Fields
// not meaningful for a given assembly stay zero.
type State struct {
	// Ctx cancels the run early.
	Ctx context.Context
	// Cfg is the run configuration (defaults applied).
	Cfg Config
	// Original is the input constraint; passes never mutate it.
	Original *smt.Constraint
	// Deadline is the wall-clock cutoff for the bounded solve.
	Deadline time.Time
	// Interrupt aborts the bounded solve (used by the portfolio).
	Interrupt *atomic.Bool
	// Session, when set, makes bounded-solve use the persistent
	// incremental bit-blasting session instead of a fresh solver.
	Session *solver.BVSession

	// T0 anchors wall-clock translation accounting for the current round.
	T0 time.Time
	// Round is the refinement round (0 for single-shot runs); recorded
	// into spans.
	Round int

	// Direction is the approximation direction composed so far: drivers
	// seed it (DirUnder for the historical assemblies, DirExact for the
	// over-approximating one) and each approximating pass composes its
	// own direction on via ComposeDirection. Exec stamps the final value
	// into Res.Direction.
	Direction Direction
	// Abstracted, when set, replaces Original as the translation source:
	// the linearize-nia pass stores its linear abstraction here so the
	// downstream passes bound and solve the abstraction while
	// verification still targets Original.
	Abstracted *smt.Constraint
	// AbstractBack maps a model of the Abstracted constraint onto the
	// original variables (dropping fresh product/alias variables);
	// verify-model composes it after ModelBack. Nil when no abstraction
	// ran.
	AbstractBack func(eval.Assignment) (eval.Assignment, error)
	// WidthCertified reports that infer-apriori-bounds certified the
	// selected width complete for the translation source: every solution
	// of the source fits the width with no overflow, so translation is
	// DirExact instead of DirUnder.
	WidthCertified bool
	// SkipTranslate makes the translate pass hand the (abstracted)
	// constraint to bounded-solve in its unbounded linear form instead of
	// translating to bitvectors — the over-approximating assembly's
	// fallback when no complete width exists but the linear abstraction
	// is still cheaper to refute than the original.
	SkipTranslate bool

	// Kind classifies the original constraint (set by infer-bounds).
	Kind translate.Kind
	// Width is the bitvector width to translate at (integer constraints).
	Width int
	// FPSort is the floating-point sort to translate at (real
	// constraints).
	FPSort smt.Sort
	// Root is the raw inference result before clamping (integer: root
	// width; real: M+P; fixed-width runs: the fixed width).
	Root int
	// Hints are per-variable range hints for translation (nil: none);
	// infer-apriori-bounds sets the certified ones.
	Hints map[string]int

	// Translated is the translation result (set by translate).
	Translated *translate.Result
	// Bounded is the constraint handed to the bounded solve; translate
	// sets it. The reduce-int2bv pass sets it to the width-reduced
	// constraint.
	Bounded *smt.Constraint
	// ModelBack maps a bounded model back to the original sorts.
	ModelBack func(eval.Assignment) (eval.Assignment, error)
	// Solve is the bounded solver's result (set by bounded-solve).
	Solve solver.Result

	// ChargedWork is work, in units, that a transform pass charged to the
	// round beyond the per-node translation accounting (the residue
	// pass's enumeration). ChargeTranslation adds it to the translation
	// work, so it comes out of the bounded solve's budget.
	ChargedWork int64

	// UnsatOutcome and UnknownOutcome parameterize bounded-solve's
	// classification: the STAUB assembly reports
	// bounded-unsat/bounded-unknown, the reduce assembly
	// narrow-unsat/unknown.
	UnsatOutcome, UnknownOutcome Outcome

	// Res accumulates the run's Result across passes and rounds.
	Res *Result
	// Err records a transform failure for callers that need the cause
	// (Result carries only the outcome).
	Err error

	// SpanWork and SpanNote are scratch the running pass fills for its
	// span/metrics record; Exec resets them before each pass.
	SpanWork int64
	// SpanNote is a short human-readable annotation for the span.
	SpanNote string
}

// NewState returns a State ready for Exec, configured for the STAUB
// outcome taxonomy (reassign UnsatOutcome/UnknownOutcome for other
// assemblies).
func NewState(ctx context.Context, c *smt.Constraint, cfg Config, deadline time.Time, interrupt *atomic.Bool) *State {
	if interrupt == nil {
		// Watchdogs cancel runaway passes through the interrupt flag, so
		// every run gets one even when no portfolio peer supplies it.
		interrupt = new(atomic.Bool)
	}
	return &State{
		Ctx:            ctx,
		Cfg:            cfg.WithDefaults(),
		Original:       c,
		Deadline:       deadline,
		Interrupt:      interrupt,
		T0:             time.Now(),
		UnsatOutcome:   OutcomeBoundedUnsat,
		UnknownOutcome: OutcomeBoundedUnknown,
		Res:            &Result{},
	}
}

// Pass is one named pipeline stage.
type Pass struct {
	// Name identifies the pass in the registry, spans and metrics.
	Name string
	// Doc is a one-line description for docs and CLI listings.
	Doc string
	// Run advances the state and decides whether the chain continues.
	Run func(*State) Verdict
}

// Standard pass names. Assemblies reference passes by name so the cache
// key, the trace and the docs all speak the same vocabulary.
const (
	PassInferBounds   = "infer-bounds"
	PassTranslate     = "translate"
	PassReduceIntToBV = "reduce-int2bv"
	PassBoundedSolve  = "bounded-solve"
	PassCubeSolve     = "cube-solve"
	PassVerifyModel   = "verify-model"
	PassLinearizeNIA  = "linearize-nia"
	PassInferApriori  = "infer-apriori-bounds"
	PassResidue       = "residue"
)

var (
	regMu    sync.RWMutex
	registry = map[string]Pass{}
	passAgg  = map[string]*passMetrics{}
)

// Register adds a pass to the registry and declares its per-pass series
// on metrics.Process. Registering a duplicate name panics: pass names are
// global vocabulary. Packages contribute passes
// from init (internal/reduce registers reduce-int2bv this way, keeping
// the dependency pointing reduce→pipeline).
func Register(p Pass) {
	if p.Name == "" || p.Run == nil {
		panic("pipeline: Register requires a name and a Run func")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[p.Name]; dup {
		panic(fmt.Sprintf("pipeline: pass %q registered twice", p.Name))
	}
	registry[p.Name] = p
	passAgg[p.Name] = newPassMetrics(p.Name)
}

// Lookup returns the registered pass for name.
func Lookup(name string) (Pass, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	p, ok := registry[name]
	return p, ok
}

// MustPasses resolves names to passes, panicking on an unknown name
// (assemblies are wired at compile time; a miss is a programming error).
func MustPasses(names ...string) []Pass {
	out := make([]Pass, len(names))
	for i, name := range names {
		p, ok := Lookup(name)
		if !ok {
			panic(fmt.Sprintf("pipeline: unknown pass %q", name))
		}
		out[i] = p
	}
	return out
}

// Exec runs the pass chain over st until a pass stops it or the chain
// ends. Every pass execution updates the aggregate per-pass metrics; when
// Cfg.Trace is set each execution also appends a Span to st.Res.Trace.
func Exec(st *State, passes []Pass) {
	defer func() {
		if st.Res != nil {
			st.Res.Direction = st.Direction
		}
	}()
	for _, p := range passes {
		if runPass(st, p) == Stop {
			return
		}
	}
}

func runPass(st *State, p Pass) Verdict {
	st.SpanWork, st.SpanNote = 0, ""
	// Per-pass watchdog: the pass gets a slice of the request timeout; a
	// pass that exceeds it is cancelled through the interrupt flag instead
	// of starving the portfolio peer. The timer fires only for genuinely
	// wedged passes — shares are sized so no legitimate pass (including
	// deterministic solves under -race slowdowns) comes near them.
	var fired atomic.Bool
	var watchdog *time.Timer
	if share := watchdogShare(st, p.Name); share > 0 && st.Interrupt != nil {
		intr := st.Interrupt
		watchdog = time.AfterFunc(share, func() {
			fired.Store(true)
			intr.Store(true)
		})
	}
	t0 := time.Now()
	v := execPass(st, p)
	wall := time.Since(t0)
	if watchdog != nil {
		watchdog.Stop()
	}
	if fired.Load() {
		if m := aggFor(p.Name); m != nil {
			m.watchdogs.Inc()
		}
		if st.Res.Fault == "" {
			v = failFault(st, p.Name, FaultWatchdog,
				fmt.Errorf("pipeline: watchdog cancelled pass %s", p.Name))
		}
	}
	// Work-budget ceiling: a pass reporting work far beyond anything the
	// configured timeout could legitimately buy is treated as a contained
	// budget fault (chaos budget blowups land here).
	if ceil := workCeiling(st.Cfg); st.SpanWork > ceil {
		st.SpanWork = ceil
		if st.Res.Fault == "" {
			if st.Interrupt != nil {
				st.Interrupt.Store(true)
			}
			if m := aggFor(p.Name); m != nil {
				m.budgets.Inc()
			}
			v = failFault(st, p.Name, FaultBudget,
				fmt.Errorf("pipeline: pass %s exceeded the work-budget ceiling", p.Name))
		}
	}
	if m := aggFor(p.Name); m != nil {
		m.runs.Inc()
		m.work.Add(st.SpanWork)
		m.seconds.Observe(wall)
	}
	if st.Cfg.Trace && st.Res != nil {
		sp := Span{Pass: p.Name, Round: st.Round, Work: st.SpanWork, Wall: wall, Note: st.SpanNote}
		if st.Cfg.Deterministic && st.SpanWork > 0 {
			sp.Virtual = solver.VirtualDuration(st.SpanWork)
		}
		st.Res.Trace = append(st.Res.Trace, sp)
	}
	return v
}

// execPass runs one pass behind the panic-isolation boundary and the
// per-pass chaos site. A recovered panic becomes an OutcomeError result
// carrying the pass name and the captured stack; the process (and the
// portfolio's unbounded leg) keeps running.
func execPass(st *State, p Pass) (v Verdict) {
	site := "pass:" + p.Name
	defer func() {
		if r := recover(); r != nil {
			if m := aggFor(p.Name); m != nil {
				m.panics.Inc()
			}
			v = failFault(st, p.Name, FaultPanic,
				fmt.Errorf("pipeline: pass %s panicked: %v", p.Name, r))
			st.Res.PanicStack = string(debug.Stack())
			st.SpanNote = fmt.Sprintf("panic: %v", r)
		}
	}()
	switch chaos.At(site) {
	case chaos.FaultPassPanic:
		panic(chaos.Injected{Site: site})
	case chaos.FaultSolverStall:
		d := chaos.Stall(0, func() bool {
			return (st.Interrupt != nil && st.Interrupt.Load()) ||
				(st.Ctx != nil && st.Ctx.Err() != nil)
		})
		v = failFault(st, p.Name, FaultStall,
			fmt.Errorf("chaos: injected stall in pass %s", p.Name))
		st.SpanNote = fmt.Sprintf("chaos: stalled %v", d.Round(time.Millisecond))
		return v
	case chaos.FaultTransientError:
		v = failFault(st, p.Name, FaultTransient,
			fmt.Errorf("chaos: injected transient error in pass %s", p.Name))
		st.SpanNote = "chaos: transient error"
		return v
	case chaos.FaultBudgetBlowup:
		v = p.Run(st)
		st.SpanWork += chaos.BlowupWork()
		return v
	}
	return p.Run(st)
}

// failFault ends the run as a contained fault: OutcomeError, status
// unknown, with the fault class and pass recorded for degradation
// decisions upstream.
func failFault(st *State, pass, fault string, err error) Verdict {
	st.Res.Outcome = OutcomeError
	st.Res.Status = status.Unknown
	st.Res.Fault = fault
	st.Res.FaultPass = pass
	st.Err = err
	if st.SpanNote == "" {
		st.SpanNote = fault
	}
	return Stop
}

// watchdogShare is the watchdog allowance for one execution of the named
// pass. Transform passes are sliced from the nominal request timeout (a
// quarter each, floored at minWatchdogShare); bounded-solve already runs
// under its own deadline and work budget, so its watchdog is only an
// anti-stuck backstop a full timeout beyond that deadline. A zero share
// disarms the watchdog.
func watchdogShare(st *State, pass string) time.Duration {
	if pass == PassBoundedSolve || pass == PassCubeSolve {
		if st.Deadline.IsZero() {
			return 0
		}
		return time.Until(st.Deadline) + st.Cfg.Timeout
	}
	return max(st.Cfg.Timeout/4, minWatchdogShare)
}

// minWatchdogShare floors a transform pass's watchdog. The watchdog is
// wall-clock, so it also counts time a pass spends runnable but not
// running: with more busy workers than CPUs, the scheduler's 10 ms
// time slices alone can hold a pass of a few microseconds' work for tens
// of milliseconds (and -race multiplies that). The floor keeps such
// stalls well clear of the trigger, so only a genuinely wedged pass is
// cancelled and a deterministic run stays a pure function of its work.
const minWatchdogShare = 250 * time.Millisecond

// workCeiling is the per-pass work ceiling for cfg: several times the
// whole run's deterministic work budget, so no legitimate pass can reach
// it (deterministic solves clamp to the budget; transform passes charge
// node counts). The cube pass legitimately reports the sum of work over
// all 2^CubeVars legs plus the probe, so its ceiling scales with the leg
// count.
func workCeiling(cfg Config) int64 {
	ceil := 4 * solver.WorkBudgetFor(cfg.Timeout)
	if cfg.CubeVars > 0 {
		ceil *= int64(1)<<uint(cfg.CubeVars) + 1
	}
	return ceil
}

// Figure3PassNames is the pass chain RunOnce assembles for cfg — the
// Figure 3 pipeline with its optional stages resolved. Exposed so the
// engine can derive cache keys from the actual pass list.
func Figure3PassNames(cfg Config) []string {
	names := []string{PassInferBounds, PassTranslate}
	solve := PassBoundedSolve
	if cfg.CubeVars > 0 {
		solve = PassCubeSolve
	}
	return append(names, solve, PassVerifyModel)
}

// OverApproxPassNames is the pass chain RunOverApprox assembles — the
// over-approximating pipeline. Cubing does not apply: it operates on
// bitvector forms the fallback path never produces, and it cannot change
// a verdict the certification argument depends on.
func OverApproxPassNames(cfg Config) []string {
	return []string{PassResidue, PassLinearizeNIA, PassInferApriori, PassTranslate, PassBoundedSolve, PassVerifyModel}
}

// PassNamesFor resolves the pass chain cfg assembles — the Figure 3
// pipeline, or the over-approximating assembly when Config.OverApprox is
// set. The engine derives cache keys from this list.
func PassNamesFor(cfg Config) []string {
	if cfg.OverApprox {
		return OverApproxPassNames(cfg)
	}
	return Figure3PassNames(cfg)
}
