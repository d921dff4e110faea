// Package engine is the batch execution spine of the repository: a bounded
// worker pool that schedules solve jobs across GOMAXPROCS-derived workers
// with context cancellation and per-job wall-clock backstops, aggregates
// results in submission order (so downstream tables and CSVs are identical
// regardless of completion order), and deduplicates work through an
// optional content-addressed solve cache (see Cache).
//
// The experiment harness, staub-bench and the staub CLI all route their
// solving through this package; a Job is one (constraint, configuration)
// solve and carries everything needed to reproduce it deterministically.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"staub/internal/chaos"
	"staub/internal/core"
	"staub/internal/metrics"
	"staub/internal/pipeline"
	"staub/internal/smt"
	"staub/internal/solver"
	"staub/internal/status"
)

// Kind selects what a job runs.
type Kind int

// Job kinds.
const (
	// KindSolve decides the constraint directly with the unbounded solver
	// (the harness's "pre" leg and the CLI's fallback).
	KindSolve Kind = iota
	// KindPipeline runs the full STAUB pipeline on the constraint.
	KindPipeline
	// KindPortfolio races the pipeline against the unmodified solver.
	KindPortfolio
)

// Job is one schedulable solve task.
type Job struct {
	Kind       Kind
	Constraint *smt.Constraint
	// Config carries the job's settings. KindSolve jobs read only its
	// Profile, Timeout, Seed and Deterministic.
	Config core.Config
}

// Result is a completed job, with exactly one of the payload fields set
// according to the job kind.
type Result struct {
	Solve     solver.Result
	Pipeline  core.PipelineResult
	Portfolio core.PortfolioResult
	// CacheHit reports that the result came from the solve cache (or from
	// joining an identical in-flight job) rather than a fresh solve.
	CacheHit bool
	// Fault classifies a contained failure for this job (the
	// pipeline.Fault* vocabulary); empty for clean results. Faulted
	// results are never memoized in the solve cache.
	Fault string
	// Transient marks a fault the caller may retry once (chaos-injected
	// transient errors).
	Transient bool
	// Err describes the fault for logs and API error entries.
	Err string
}

// timeout returns the job's effective time budget.
func (j Job) timeout() time.Duration {
	return j.Config.WithDefaults().Timeout
}

// ExecuteJob runs a single job to completion with no pool and no cache —
// the sequential oracle the worker pool is tested against. The context
// cancels the solve early. Panics escaping the solve (from any layer not
// already contained by the pipeline) are recovered into a faulted unknown
// result, so one poisoned job can never take down its caller.
func ExecuteJob(ctx context.Context, j Job) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			res = faultResult(j, pipeline.FaultPanic, fmt.Sprintf("engine: job panicked: %v", r))
		}
	}()
	switch chaos.At("engine:job") {
	case chaos.FaultPassPanic:
		panic(chaos.Injected{Site: "engine:job"})
	case chaos.FaultTransientError:
		return faultResult(j, pipeline.FaultTransient, "chaos: injected transient error at engine:job")
	case chaos.FaultSolverStall:
		chaos.Stall(j.timeout(), func() bool { return ctx.Err() != nil })
		return faultResult(j, pipeline.FaultStall, "chaos: injected stall at engine:job")
	case chaos.FaultBudgetBlowup:
		return faultResult(j, pipeline.FaultBudget, "chaos: injected budget blowup at engine:job")
	}
	switch j.Kind {
	case KindPipeline:
		res = Result{Pipeline: core.RunPipeline(ctx, j.Constraint, j.Config, nil)}
		res.Fault = res.Pipeline.Fault
		if res.Fault != "" {
			res.Transient = res.Fault == pipeline.FaultTransient
			res.Err = fmt.Sprintf("pipeline fault %s in pass %s", res.Pipeline.Fault, res.Pipeline.FaultPass)
		}
		return res
	case KindPortfolio:
		return Result{Portfolio: core.RunPortfolio(ctx, j.Constraint, j.Config)}
	default:
		return Result{Solve: pipeline.SolveOriginal(ctx, j.Constraint, j.Config, nil)}
	}
}

// faultResult is the degraded result a contained fault yields for j: an
// unknown verdict in the shape the job's kind promises, so downstream
// aggregation treats it like any other give-up and never reads a zeroed
// payload as a verified sat.
func faultResult(j Job, fault, msg string) Result {
	res := Result{Fault: fault, Transient: fault == pipeline.FaultTransient, Err: msg}
	errPipe := core.PipelineResult{Outcome: core.OutcomeError, Status: status.Unknown, Fault: fault}
	switch j.Kind {
	case KindPipeline:
		res.Pipeline = errPipe
	case KindPortfolio:
		// The fault struck before the race could run its unbounded leg:
		// degrade the whole portfolio to unknown.
		res.Portfolio = core.PortfolioResult{Status: status.Unknown, Degraded: true, Pipeline: errPipe}
	default:
		res.Solve = solver.Result{Status: status.Unknown, TimedOut: true, Work: 1, Engine: "faulted"}
	}
	return res
}

// Engine is a reusable worker pool over solve jobs.
type Engine struct {
	workers  int
	cache    *Cache
	inFlight metrics.Gauge   // jobs currently executing (batch or single)
	panics   metrics.Counter // worker-level recovered panics
}

// New returns an engine with the given worker count (≤ 0 selects
// GOMAXPROCS) and optional shared solve cache (nil disables caching).
func New(workers int, cache *Cache) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: workers, cache: cache}
}

// Workers reports the pool size.
func (e *Engine) Workers() int { return e.workers }

// Cache returns the engine's solve cache (nil when caching is disabled).
func (e *Engine) Cache() *Cache { return e.cache }

// InFlight reports the number of jobs currently executing.
func (e *Engine) InFlight() int64 { return e.inFlight.Value() }

// Register exposes the engine's in-flight gauge (and its cache's
// counters, when caching is enabled) through reg.
func (e *Engine) Register(reg *metrics.Registry) {
	reg.RegisterGauge("staub_engine_inflight", nil, &e.inFlight)
	reg.RegisterCounter("staub_engine_worker_panics_total", nil, &e.panics)
	if e.cache != nil {
		e.cache.Register(reg)
	}
}

// WorkerPanics reports how many worker-level panics this engine has
// recovered (panics that escaped even the per-job containment).
func (e *Engine) WorkerPanics() int64 { return e.panics.Value() }

// Solve executes one job through the engine's cache and in-flight
// accounting without batch scheduling — the hook point for callers that
// manage their own concurrency, such as the staub-serve request handlers.
// The context's deadline (plus the engine's backstop) bounds the solve.
func (e *Engine) Solve(ctx context.Context, j Job) Result {
	return e.runOne(ctx, j, true)
}

// SolveLocal is Solve with the cache's remote tier bypassed: the job is
// served from the local cache or computed here, never routed to a peer.
// The peer-solve endpoint uses it so a request a peer routed here can
// never be routed onward (no forwarding chains, no routing loops even
// under inconsistent ring views during membership change).
func (e *Engine) SolveLocal(ctx context.Context, j Job) Result {
	return e.runOne(ctx, j, false)
}

// Run executes the batch and returns results indexed exactly like jobs,
// independent of completion order. Cancelling the context stops feeding
// new jobs and interrupts the ones in flight; their slots report an
// unknown, timed-out solve. Run always waits for its workers to exit
// before returning, so no goroutines are leaked.
func (e *Engine) Run(ctx context.Context, jobs []Job) []Result {
	results := make([]Result, len(jobs))
	if len(jobs) == 0 {
		return results
	}
	workers := e.workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	feed := make(chan int)
	executed := make([]bool, len(jobs))
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range feed {
				// Per-job recovery at the worker level: ExecuteJob already
				// contains solve panics, so this boundary only catches
				// panics from the scheduling machinery itself — but one
				// poisoned job must never kill the pool either way.
				func() {
					defer func() {
						if r := recover(); r != nil {
							e.panics.Inc()
							results[i] = faultResult(jobs[i], pipeline.FaultPanic,
								fmt.Sprintf("engine: worker panicked: %v", r))
						}
					}()
					results[i] = e.runOne(ctx, jobs[i], true)
				}()
				executed[i] = true
			}
		}()
	}
feeding:
	for i := range jobs {
		select {
		case feed <- i:
		case <-ctx.Done():
			break feeding
		}
	}
	close(feed)
	wg.Wait()
	// Mark slots the cancellation left unexecuted so callers can
	// distinguish them from real verdicts.
	for i := range results {
		if !executed[i] {
			results[i] = cancelledResult()
		}
	}
	return results
}

func cancelledResult() Result {
	return Result{Solve: solver.Result{Status: status.Unknown, TimedOut: true, Work: 1, Engine: "cancelled"}}
}

// runOne executes one job under its per-job deadline, consulting the
// cache (and, for remote-eligible calls, the cache's remote tier) when
// one is configured.
func (e *Engine) runOne(ctx context.Context, j Job, useRemote bool) Result {
	if ctx.Err() != nil {
		return cancelledResult()
	}
	e.inFlight.Inc()
	defer e.inFlight.Dec()
	jctx, cancel := context.WithDeadline(ctx, pipeline.BackstopDeadline(j.timeout()))
	defer cancel()
	if e.cache == nil {
		return ExecuteJob(jctx, j)
	}
	// local is the compute continuation handed to the remote tier: it
	// runs the job here under the context the tier chooses (a hedged
	// local solve gets a cancellable child so a winning remote answer
	// can interrupt it). Don't memoize work that was cut short by
	// cancellation, or that degraded under a contained fault: a later
	// batch must be able to solve it for real (a poisoned job must not
	// poison the cache).
	local := func(lctx context.Context) (Result, bool) {
		r := ExecuteJob(lctx, j)
		keep := lctx.Err() == nil && r.Fault == "" &&
			!(j.Kind == KindPortfolio && r.Portfolio.Degraded)
		return r, keep
	}
	key := j.Key()
	res, hit := e.cache.do(key, func() (Result, bool) {
		if rem := e.cache.Remote(); useRemote && rem != nil {
			return rem(jctx, key, j, local)
		}
		return local(jctx)
	})
	res.CacheHit = hit
	return res
}
