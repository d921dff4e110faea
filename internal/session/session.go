// Package session owns the lifecycle of a long-lived solve conversation:
// an SMT-LIB command stream (assert / push / pop / check-sat / get-value)
// executed against persistent solver state. It is the subsystem the
// paper's headline client shape (§7, Ultimate Automizer) needs — many
// related queries over a slowly mutating assertion set — and it is where
// the PR 3 incremental machinery finally meets the front door: every
// check-sat replays the §6.2 width-doubling refinement on one persistent
// bit-blasting session, so learned clauses, variable activities and the
// structural gate cache survive from check to check, not just from
// refinement round to refinement round.
//
// # Scope frames and activation literals
//
// The SMT-LIB assertion stack lives in smt.ScriptState: push/pop is pure
// bookkeeping over which assertions are visible. Each check-sat
// materializes the visible set as a flat constraint and encodes it as the
// next round of the persistent bitblast session, under a fresh activation
// literal; the previous check's rounds were already retired by permanent
// ¬a_N units. Scope frames therefore never map onto long-lived solver
// state directly — what persists is everything width- and
// scope-independent (variable bit vectors, structural gates, learned
// clauses over them), and what is scoped is exactly the per-round
// assertion set guarded by the round's activation literal. A pop needs no
// solver interaction at all; the next check simply encodes a smaller
// visible set.
//
// # Eviction soundness
//
// Solver state is a cache, never the truth: the durable session is the
// ScriptState. Dropping the solver (memory budget, server LRU pressure,
// injected chaos) only costs the next check a rebuild — it re-encodes the
// visible set into a fresh session, which is exactly what a cold solve
// would do. Verdicts cannot change, because every check's final verdict
// is computed the same way regardless of solver-state temperature:
// a verified model is sat, anything else falls back to the unbounded
// reference solve of the visible constraint.
package session

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"staub/internal/chaos"
	"staub/internal/eval"
	"staub/internal/pipeline"
	"staub/internal/smt"
	"staub/internal/solver"
	"staub/internal/status"
	"staub/internal/translate"
)

// ErrClosed is returned by operations on a closed session.
var ErrClosed = errors.New("session: closed")

// Config is the per-session refinement strategy and resource policy.
// The UppSAT-style knobs (StartWidth, WidthStep, RefineRounds) let one
// service pool serve cheap interactive probes and deep batch refinement
// with different precision schedules.
type Config struct {
	// StartWidth overrides the inferred round-0 bitvector width
	// (0 = infer).
	StartWidth int
	// WidthStep is the between-round width multiplier (default 2).
	WidthStep int
	// RefineRounds bounds §6.2 refinement rounds per check (default 4).
	// Negative disables refinement.
	RefineRounds int
	// Timeout is the per-check budget (default 2s).
	Timeout time.Duration
	// Profile selects the solver profile.
	Profile solver.Profile
	// Deterministic switches checks to virtual-time work budgets.
	Deterministic bool
	// MemoryBudget caps the solver state retained between checks, in
	// bytes (0 = unlimited). A check that leaves the session above the
	// budget completes normally and then drops the solver state; the next
	// check rebuilds from the assertion stack.
	MemoryBudget int64
	// MeasureReplay additionally solves every check from scratch through
	// the one-shot path and records the work both ways (benchmarks and
	// differential tests; doubles the cost of every check).
	MeasureReplay bool
}

func (c Config) withDefaults() Config {
	if c.Timeout == 0 {
		c.Timeout = 2 * time.Second
	}
	if c.RefineRounds == 0 {
		c.RefineRounds = 4
	}
	if c.RefineRounds < 0 {
		c.RefineRounds = 0
	}
	if c.WidthStep == 0 {
		c.WidthStep = 2
	}
	return c
}

// CheckResult reports one check-sat.
type CheckResult struct {
	// Status is the final verdict: sat, unsat, or unknown.
	Status status.Status
	// Outcome is the STAUB pipeline outcome of the bounded attempt.
	Outcome pipeline.Outcome
	// Model holds the satisfying assignment when Status is sat.
	Model eval.Assignment
	// Width and Refined report the final refinement width and rounds.
	Width   int
	Refined int
	// Work is the check's solver work in deterministic units (bounded
	// rounds plus fallback, if any).
	Work int64
	// ReplayWork is the work the same check cost through the from-scratch
	// one-shot path (only when Config.MeasureReplay is set).
	ReplayWork int64
	// Incremental reports the check ran on the persistent session;
	// Rebuilt that the session had to be re-encoded after a state drop.
	Incremental bool
	Rebuilt     bool
	// ModelReused reports the previous check's model still satisfied the
	// visible set, so the verdict came from re-verification alone.
	ModelReused bool
	// Memoized reports the visible set was byte-identical to an earlier
	// check of this session (a pop back to a solved state), so the
	// recorded result was returned.
	Memoized bool
	// Fallback reports the unbounded reference solver decided the check
	// (the bounded pipeline reverted).
	Fallback bool
	// Evicted reports the check left the session over its memory budget
	// (or a chaos fault fired) and the solver state was dropped.
	Evicted bool
	// Bytes is the solver-state estimate after the check (before any
	// drop).
	Bytes int64
	// Elapsed is the check's wall-clock time.
	Elapsed time.Duration
}

// OutputKind classifies one unit of script output.
type OutputKind int

// Output kinds.
const (
	// OutVerdict is a check-sat verdict line.
	OutVerdict OutputKind = iota
	// OutValues is a get-value result list.
	OutValues
	// OutEcho is an echoed string.
	OutEcho
)

// Output is one unit of output an executed command stream produced, in
// stream order: what an SMT-LIB REPL would print.
type Output struct {
	Kind OutputKind
	// Text is the printed form ("sat", "((x 5))", the echoed string).
	Text string
	// Check carries the full result for verdict outputs.
	Check *CheckResult
}

// Stats aggregates a session's lifetime counters.
type Stats struct {
	Checks      int64
	Work        int64
	ReplayWork  int64
	Rebuilds    int64
	Fallbacks   int64
	Drops       int64
	Evictions   int64
	ModelReuses int64
	MemoHits    int64
}

// checkMemo records one decided visible set, keyed by its canonical flat
// script. A session popping back to a state it already decided (the
// dominant Ultimate-Automizer shape: probe, retract, re-probe) answers
// from the memo instead of re-solving — sound because the flat script
// fully determines the constraint, and in deterministic mode the one-shot
// reference is a pure function of it.
type checkMemo struct {
	status  status.Status
	outcome pipeline.Outcome
	model   eval.Assignment
	width   int
}

// Session is one stateful solve conversation. All methods are safe for
// concurrent use; commands and checks serialize on an internal lock.
type Session struct {
	mu      sync.Mutex
	cfg     Config
	st      *smt.ScriptState
	bv      *solver.BVSession
	evicted bool            // solver state was dropped; next rebuild is chargeable
	last    eval.Assignment // model of the most recent sat check
	memo    map[string]checkMemo
	closed  bool
	stats   Stats
}

// New returns an empty session.
func New(cfg Config) *Session {
	return &Session{cfg: cfg.withDefaults(), st: smt.NewScriptState(), memo: map[string]checkMemo{}}
}

// Config returns the session's (defaulted) configuration.
func (s *Session) Config() Config {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg
}

// Exec parses and executes src — any sequence of SMT-LIB commands — and
// returns the output the stream produced, in order: one verdict per
// (check-sat), one value list per (get-value), one line per (echo).
// On error, commands before the failing one stay applied (SMT-LIB REPL
// semantics) and the outputs produced so far are returned.
func (s *Session) Exec(ctx context.Context, src string) ([]Output, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	var out []Output
	err := s.st.Parse(src, func(cmd smt.Command) error {
		switch cmd.Kind {
		case smt.CmdCheckSat:
			cr := s.checkLocked(ctx)
			out = append(out, Output{Kind: OutVerdict, Text: cr.Status.String(), Check: cr})
		case smt.CmdGetValue:
			out = append(out, Output{Kind: OutValues, Text: s.valuesLocked(cmd.Terms)})
		case smt.CmdEcho:
			out = append(out, Output{Kind: OutEcho, Text: cmd.Name})
		}
		return ctx.Err()
	})
	return out, err
}

// Feed applies assertion-stack commands (declare, define, assert, push,
// pop, set-logic, reset) without solving. Commands that produce output
// are rejected: the service's check endpoint is the one place verdicts
// come from, so a mis-routed script cannot silently discard them.
func (s *Session) Feed(src string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.st.Parse(src, func(cmd smt.Command) error {
		switch cmd.Kind {
		case smt.CmdCheckSat, smt.CmdGetValue:
			return fmt.Errorf("session: %s is not allowed here; use the check endpoint", cmd.Kind)
		}
		return nil
	})
}

// Push opens n scope frames.
func (s *Session) Push(n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.st.Push(n)
}

// Pop closes the n innermost frames. The solver state is untouched: the
// next check simply encodes the smaller visible set.
func (s *Session) Pop(n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.st.Pop(n)
}

// Check runs one check-sat against the currently visible assertions.
func (s *Session) Check(ctx context.Context) (*CheckResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	return s.checkLocked(ctx), nil
}

// Depth reports the current scope depth.
func (s *Session) Depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.Depth()
}

// NumAssertions counts the currently visible assertions.
func (s *Session) NumAssertions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.NumAssertions()
}

// MemoryBytes estimates the session's retained heap: the persistent
// solver state (if live) plus a small accounting charge per visible
// assertion.
func (s *Session) MemoryBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.memoryLocked()
}

func (s *Session) memoryLocked() int64 {
	n := int64(s.st.NumAssertions())*64 + int64(s.st.NumVars())*64
	for key, m := range s.memo {
		n += int64(len(key)) + int64(len(m.model))*48 + 64
	}
	if s.bv != nil {
		n += s.bv.MemoryBytes()
	}
	return n
}

// Stats returns the session's lifetime counters.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// DropSolver discards the persistent solver state, keeping the assertion
// stack; the next check rebuilds from it. The server calls this to spill
// idle sessions under a global memory ceiling (reason "lru"); the
// session itself calls it on budget overrun and injected faults.
func (s *Session) DropSolver(reason string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropSolverLocked(reason)
}

func (s *Session) dropSolverLocked(reason string) {
	if s.bv == nil {
		return
	}
	s.bv = nil
	s.evicted = true
	s.stats.Drops++
	if c := sessDrops[reason]; c != nil {
		c.Inc()
	}
}

// Close discards all state. Later operations return ErrClosed.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.bv = nil
	s.st = smt.NewScriptState()
	s.last = nil
	s.memo = nil
}

// pipelineCfg maps the session configuration onto a pipeline run.
func (s *Session) pipelineCfg() pipeline.Config {
	return pipeline.Config{
		Timeout:       s.cfg.Timeout,
		Profile:       s.cfg.Profile,
		RefineRounds:  s.cfg.RefineRounds,
		StartWidth:    s.cfg.StartWidth,
		WidthStep:     s.cfg.WidthStep,
		Deterministic: s.cfg.Deterministic,
	}
}

// checkLocked is one check-sat, decided through a tier of reuse:
//
//  1. Memoized visible set (a pop back to an already-decided state):
//     the recorded result answers directly.
//  2. Model reuse: the previous check's model re-verified against the
//     new visible set — verification is the pipeline's own ground truth
//     for sat, so a passing re-verification IS a verified-sat check.
//  3. Bounded attempt on the persistent bit-blasting session
//     (integer→BV fragment), cold one-shot pipeline otherwise.
//  4. Unbounded fallback when the bounded attempt does not verify.
//
// Budget enforcement runs after the verdict is final.
func (s *Session) checkLocked(ctx context.Context) *CheckResult {
	t0 := time.Now()
	s.stats.Checks++
	sessChecks.Inc()
	cr := &CheckResult{}
	c := s.st.Constraint()
	cfg := s.pipelineCfg()
	key := c.Script()

	// Chaos site session:check — any injected fault class is contained
	// the same way: drop the (cache-only) solver state, skip every reuse
	// tier, and decide the check through the cold path. The verdict
	// cannot flip; only the reuse is lost.
	faulted := chaos.At("session:check") != chaos.FaultNone
	if faulted {
		s.dropSolverLocked("chaos")
	}

	switch {
	case !faulted && s.memoLookup(key, cr):
		// Tier 1: answered from the memo.
	case !faulted && s.reuseModel(c, cr):
		// Tier 2: previous model re-verified.
	default:
		s.solveLocked(ctx, c, cfg, faulted, cr)
	}

	s.stats.Work += cr.Work
	sessCheckWork.Add(cr.Work)
	s.memo[key] = checkMemo{status: cr.Status, outcome: cr.Outcome, model: cr.Model, width: cr.Width}
	if cr.Status == status.Sat {
		s.last = cr.Model
	}
	// An unsat or unknown verdict keeps the previous sat model around: a
	// later check (typically a pop back past the blocking assertion) may
	// still be satisfied by it, and reuseModel re-verifies against the
	// current visible set before trusting it.

	if s.cfg.MeasureReplay {
		cr.ReplayWork = s.replayWork(ctx, c)
		s.stats.ReplayWork += cr.ReplayWork
		sessReplayWork.Add(cr.ReplayWork)
		if saved := cr.ReplayWork - cr.Work; saved > 0 {
			sessSavedWork.Add(saved)
		}
	}

	// Budget enforcement and the session:evict chaos site run after the
	// verdict is final: eviction can only ever cost the next check a
	// rebuild (and, for the memo, a re-solve of re-visited states).
	cr.Bytes = s.memoryLocked()
	if s.cfg.MemoryBudget > 0 && cr.Bytes > s.cfg.MemoryBudget {
		s.dropSolverLocked("budget")
		cr.Evicted = true
		if s.memoryLocked() > s.cfg.MemoryBudget {
			s.memo = map[string]checkMemo{}
		}
	}
	if chaos.At("session:evict") != chaos.FaultNone {
		s.dropSolverLocked("chaos")
		cr.Evicted = true
	}
	if cr.Evicted {
		s.stats.Evictions++
	}
	cr.Elapsed = time.Since(t0)
	return cr
}

// memoLookup answers cr from the memo when the visible set was already
// decided by this session. The charge is one work unit: the lookup costs
// a script render, no solving.
func (s *Session) memoLookup(key string, cr *CheckResult) bool {
	m, ok := s.memo[key]
	if !ok {
		return false
	}
	cr.Status = m.status
	cr.Outcome = m.outcome
	cr.Model = m.model
	cr.Width = m.width
	cr.Memoized = true
	cr.Work = 1
	s.stats.MemoHits++
	sessMemoHits.Inc()
	return true
}

// reuseModel re-verifies the previous check's model against the visible
// set. A pass is a verified sat — the same ground truth passVerifyModel
// establishes — for the cost of one evaluation walk, charged at one work
// unit per constraint node (the verification pass's own cost model). New
// declarations since the model was found make the evaluation error out,
// which simply falls through to a real solve.
func (s *Session) reuseModel(c *smt.Constraint, cr *CheckResult) bool {
	if s.last == nil || !solver.VerifyModel(c, s.last) {
		return false
	}
	cr.Status = status.Sat
	cr.Outcome = pipeline.OutcomeVerified
	cr.Model = s.last
	cr.ModelReused = true
	cr.Work = int64(c.NumNodes())
	s.stats.ModelReuses++
	sessModelReuses.Inc()
	return true
}

// solveLocked is the full bounded-attempt + fallback path.
func (s *Session) solveLocked(ctx context.Context, c *smt.Constraint, cfg pipeline.Config, faulted bool, cr *CheckResult) {
	incremental := false
	if !faulted && cfg.RefineRounds > 0 && cfg.FixedWidth == 0 {
		if kind, err := translate.Classify(c); err == nil && kind == translate.KindIntToBV {
			incremental = true
		}
	}

	var pres pipeline.Result
	if incremental {
		if s.bv == nil {
			s.bv = solver.NewBVSession()
			if s.evicted {
				cr.Rebuilt = true
				s.stats.Rebuilds++
				sessRebuilds.Inc()
			}
			s.evicted = false
		}
		cr.Incremental = true
		pres = s.runSessionContained(ctx, c, cfg)
	} else {
		pres = pipeline.Run(ctx, c, cfg, nil)
	}

	cr.Outcome = pres.Outcome
	cr.Width = pres.Width
	cr.Refined = pres.Refined
	cr.Work = pres.SolveWork

	if pres.Outcome == pipeline.OutcomeVerified {
		cr.Status = status.Sat
		cr.Model = pres.Model
	} else {
		// The bounded attempt concluded nothing about the original
		// constraint; the unbounded reference solve decides. This leg is
		// identical whether the bounded attempt ran warm, cold, or not at
		// all — the eviction-soundness anchor.
		fres := s.fallbackSolve(ctx, c)
		cr.Fallback = true
		s.stats.Fallbacks++
		sessFallbacks.Inc()
		cr.Status = fres.Status
		if fres.Status == status.Sat {
			cr.Model = fres.Model
		}
		cr.Work += fres.Work
		// The refinement trajectory burned to its width ceiling without a
		// verified model; the session now holds wide encodings and learned
		// clauses specific to that dead end, which tax every later narrow
		// check with re-encode and propagation over retired structure.
		// Discard the (cache-only) state so the next check encodes lean.
		// Not an eviction: nothing the session promised to keep is lost.
		s.bv = nil
	}
}

// runSessionContained runs the incremental refinement loop over the
// persistent session behind a panic boundary: a defect in the
// incremental path must never take down a conversation, so it is
// contained by dropping the solver state and deciding the check through
// a fresh stateless run.
func (s *Session) runSessionContained(ctx context.Context, c *smt.Constraint, cfg pipeline.Config) (pres pipeline.Result) {
	deadline := time.Now().Add(cfg.Timeout)
	if cfg.Deterministic {
		deadline = pipeline.BackstopDeadline(cfg.Timeout)
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				s.dropSolverLocked("fault")
				pres = pipeline.Result{Outcome: pipeline.OutcomeError, Status: status.Unknown}
			}
		}()
		pres = pipeline.RunSession(ctx, c, cfg, deadline, nil, s.bv)
	}()
	if pres.Outcome == pipeline.OutcomeError && s.bv == nil {
		// Contained: decide through the stateless path.
		pres = pipeline.Run(ctx, c, cfg, nil)
	}
	return pres
}

// fallbackSolve is the unbounded reference solve of the visible
// constraint, under the same budget regime a one-shot run would get.
func (s *Session) fallbackSolve(ctx context.Context, c *smt.Constraint) solver.Result {
	return pipeline.SolveOriginal(ctx, c, s.pipelineCfg(), nil)
}

// replayWork measures what the check would have cost from scratch: the
// visible constraint is re-printed and re-parsed (fresh builder, no
// shared structure), run through the stateless one-shot pipeline, and
// the unbounded fallback added when the bounded attempt does not verify —
// exactly the per-prefix replay the differential gate compares against.
func (s *Session) replayWork(ctx context.Context, c *smt.Constraint) int64 {
	fresh, err := smt.ParseScript(c.Script())
	if err != nil {
		return 0
	}
	pres := pipeline.Run(ctx, fresh, s.pipelineCfg(), nil)
	work := pres.SolveWork
	if pres.Outcome != pipeline.OutcomeVerified {
		work += s.fallbackSolve(ctx, fresh).Work
	}
	return work
}

// valuesLocked renders a get-value answer against the most recent sat
// model, in SMT-LIB association-list shape.
func (s *Session) valuesLocked(terms []*smt.Term) string {
	if s.last == nil {
		return `(error "no model available")`
	}
	parts := make([]string, 0, len(terms))
	for _, t := range terms {
		v, err := eval.Term(t, s.last)
		if err != nil {
			parts = append(parts, fmt.Sprintf("(%s (error %q))", t, err))
			continue
		}
		parts = append(parts, fmt.Sprintf("(%s %s)", t, v))
	}
	return "(" + strings.Join(parts, " ") + ")"
}
