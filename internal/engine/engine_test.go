package engine_test

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"staub/internal/benchgen"
	"staub/internal/core"
	"staub/internal/engine"
	"staub/internal/metrics"
	"staub/internal/smt"
	"staub/internal/solver"
)

func parse(t *testing.T, src string) *smt.Constraint {
	t.Helper()
	c, err := smt.ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// niaJobs returns deterministic pipeline jobs over a generated NIA suite.
func niaJobs(t *testing.T, n int, timeout time.Duration) []engine.Job {
	t.Helper()
	insts, err := benchgen.Suite("QF_NIA", n, 3)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]engine.Job, 0, 2*len(insts))
	for _, inst := range insts {
		jobs = append(jobs, engine.Job{
			Kind:       engine.KindSolve,
			Constraint: inst.Constraint,
			Config: core.Config{
				Profile:       solver.Prima,
				Timeout:       timeout,
				Deterministic: true,
			},
		})
		jobs = append(jobs, engine.Job{
			Kind:       engine.KindPipeline,
			Constraint: inst.Constraint,
			Config:     core.Config{Timeout: timeout, Deterministic: true},
		})
	}
	return jobs
}

// TestPoolMatchesSingleJob: the pool must return, slot for slot, exactly
// what ExecuteJob computes, independent of worker count.
func TestPoolMatchesSingleJob(t *testing.T) {
	jobs := niaJobs(t, 4, 30*time.Millisecond)
	ctx := context.Background()

	want := make([]engine.Result, len(jobs))
	for i, j := range jobs {
		want[i] = engine.ExecuteJob(ctx, j)
	}
	for _, workers := range []int{1, 4, 16} {
		got := engine.New(workers, nil).Run(ctx, jobs)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range got {
			assertSameResult(t, jobs[i], got[i], want[i])
		}
	}
}

func assertSameResult(t *testing.T, j engine.Job, got, want engine.Result) {
	t.Helper()
	switch j.Kind {
	case engine.KindSolve:
		if got.Solve.Status != want.Solve.Status || got.Solve.Work != want.Solve.Work ||
			got.Solve.TimedOut != want.Solve.TimedOut {
			t.Errorf("solve mismatch: got %v/%d/%t want %v/%d/%t",
				got.Solve.Status, got.Solve.Work, got.Solve.TimedOut,
				want.Solve.Status, want.Solve.Work, want.Solve.TimedOut)
		}
	case engine.KindPipeline:
		g, w := got.Pipeline, want.Pipeline
		if g.Outcome != w.Outcome || g.Total != w.Total || g.Width != w.Width ||
			g.TTrans != w.TTrans || g.TPost != w.TPost || g.TCheck != w.TCheck {
			t.Errorf("pipeline mismatch: got %v total=%v want %v total=%v",
				g.Outcome, g.Total, w.Outcome, w.Total)
		}
	}
}

// TestCacheDedup: identical jobs are solved exactly once; everyone else
// joins the in-flight run or reads the memo.
func TestCacheDedup(t *testing.T) {
	c := parse(t, "(set-logic QF_NIA)(declare-fun x () Int)(assert (= (* x x) 1369))(check-sat)")
	job := engine.Job{
		Kind:       engine.KindPipeline,
		Constraint: c,
		Config:     core.Config{Timeout: 50 * time.Millisecond, Deterministic: true},
	}
	jobs := make([]engine.Job, 16)
	for i := range jobs {
		jobs[i] = job
	}
	cache := engine.NewCache()
	results := engine.New(8, cache).Run(context.Background(), jobs)

	hits, misses := cache.Stats()
	if misses != 1 || hits != int64(len(jobs))-1 {
		t.Errorf("cache stats = %d hits / %d misses, want %d / 1", hits, misses, len(jobs)-1)
	}
	if cache.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", cache.Len())
	}
	nHit := 0
	for i, r := range results {
		if r.Pipeline.Outcome != results[0].Pipeline.Outcome || r.Pipeline.Total != results[0].Pipeline.Total {
			t.Errorf("result %d differs from result 0", i)
		}
		if r.CacheHit {
			nHit++
		}
	}
	if nHit != len(jobs)-1 {
		t.Errorf("%d results marked CacheHit, want %d", nHit, len(jobs)-1)
	}
}

// TestCacheKeyDistinguishesConfig: different configurations over the same
// constraint must not share a cache slot.
func TestCacheKeyDistinguishesConfig(t *testing.T) {
	c := parse(t, "(set-logic QF_NIA)(declare-fun x () Int)(assert (> (* x x) 10))(check-sat)")
	base := engine.Job{Kind: engine.KindPipeline, Constraint: c,
		Config: core.Config{Timeout: 50 * time.Millisecond, Deterministic: true}}
	variants := []engine.Job{
		base,
		{Kind: engine.KindSolve, Constraint: c, Config: core.Config{Profile: solver.Prima,
			Timeout: 50 * time.Millisecond, Deterministic: true}},
		{Kind: engine.KindSolve, Constraint: c, Config: core.Config{Profile: solver.Secunda,
			Timeout: 50 * time.Millisecond, Deterministic: true}},
	}
	widened := base
	widened.Config.FixedWidth = 8
	longer := base
	longer.Config.Timeout = 100 * time.Millisecond
	over := base
	over.Config.OverApprox = true
	variants = append(variants, widened, longer, over)

	seen := map[string]int{}
	for i, v := range variants {
		k := v.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %d and %d share a cache key", prev, i)
		}
		seen[k] = i
	}
}

// TestCacheKeyCoversEveryConfigField walks every field of core.Config,
// recursing into nested structs, sets it to a
// non-zero value and requires the key of a pipeline and a portfolio job to
// change. A field added to Config but not to Job.Key's format string
// fails here instead of serving another configuration's cached verdict.
func TestCacheKeyCoversEveryConfigField(t *testing.T) {
	c := parse(t, "(set-logic QF_NIA)(declare-fun x () Int)(assert (> (* x x) 10))(check-sat)")
	fields := 0
	for _, kind := range []engine.Kind{engine.KindPipeline, engine.KindPortfolio} {
		base := engine.Job{Kind: kind, Constraint: c}
		baseKey := base.Key()
		var walk func(typ reflect.Type, index []int, path string)
		walk = func(typ reflect.Type, index []int, path string) {
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				idx := append(append([]int(nil), index...), i)
				if f.Type.Kind() == reflect.Struct {
					walk(f.Type, idx, path+f.Name+".")
					continue
				}
				j := base
				v := reflect.ValueOf(&j.Config).Elem().FieldByIndex(idx)
				if !setNonZero(v) {
					t.Fatalf("Config.%s%s: no non-zero value for a %v field; extend the test", path, f.Name, v.Kind())
				}
				if j.Key() == baseKey {
					t.Errorf("kind %d: setting Config.%s%s leaves Job.Key unchanged", kind, path, f.Name)
				}
				fields++
			}
		}
		walk(reflect.TypeOf(core.Config{}), nil, "")
	}
	if fields == 0 {
		t.Fatal("core.Config has no fields to check")
	}
}

// setNonZero sets v to a non-zero value of its kind, or reports false.
func setNonZero(v reflect.Value) bool {
	if !v.CanSet() {
		return false
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1)
	case reflect.String:
		v.SetString("x")
	default:
		return false
	}
	return true
}

// TestRunCancellation: cancelling mid-batch stops the run promptly, marks
// unexecuted slots, and leaks no goroutines.
func TestRunCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	// A large budget makes each job long-running relative to the test.
	jobs := niaJobs(t, 8, 2*time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan []engine.Result, 1)
	go func() { done <- engine.New(4, engine.NewCache()).Run(ctx, jobs) }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	var results []engine.Result
	select {
	case results = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	cancelledSlots := 0
	for _, r := range results {
		if r.Solve.Engine == "cancelled" {
			cancelledSlots++
		}
	}
	if cancelledSlots == 0 {
		t.Log("note: every job finished before the cancel landed")
	}
	settleGoroutines(t, before)
}

// TestRunCancelledBeforeStart: an already-cancelled context executes
// nothing and returns marked slots.
func TestRunCancelledBeforeStart(t *testing.T) {
	jobs := niaJobs(t, 2, time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := engine.New(2, nil).Run(ctx, jobs)
	for i, r := range results {
		if r.Solve.Engine != "cancelled" || !r.Solve.TimedOut {
			t.Errorf("slot %d: want cancelled marker, got %+v", i, r.Solve)
		}
	}
}

// TestCancelledRunsAreNotMemoized: a result cut short by cancellation must
// not poison the cache for later batches.
func TestCancelledRunsAreNotMemoized(t *testing.T) {
	jobs := niaJobs(t, 4, time.Second)
	cache := engine.NewCache()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { engine.New(2, cache).Run(ctx, jobs); close(done) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	<-done
	// Whatever was aborted must be recomputable: a fresh run over the same
	// jobs yields the same results as the no-cache oracle.
	results := engine.New(2, cache).Run(context.Background(), jobs)
	for i, j := range jobs {
		want := engine.ExecuteJob(context.Background(), j)
		assertSameResult(t, j, results[i], want)
	}
}

// TestConcurrentPipelinePortfolio hammers core's entry points from many
// goroutines over shared constraints; the race detector is the assertion.
func TestConcurrentPipelinePortfolio(t *testing.T) {
	before := runtime.NumGoroutine()
	shared := []*smt.Constraint{
		parse(t, "(set-logic QF_NIA)(declare-fun x () Int)(declare-fun y () Int)(assert (= (+ (* x x) (* y y)) 25))(check-sat)"),
		parse(t, "(set-logic QF_LRA)(declare-fun u () Real)(assert (and (< u 10) (> u 1)))(check-sat)"),
	}
	cfg := core.Config{Timeout: 100 * time.Millisecond, Deterministic: true}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		c := shared[i%len(shared)]
		wg.Add(2)
		go func() {
			defer wg.Done()
			core.RunPipeline(context.Background(), c, cfg, nil)
		}()
		go func() {
			defer wg.Done()
			core.RunPortfolio(context.Background(), c, cfg)
		}()
	}
	wg.Wait()
	settleGoroutines(t, before)
}

// TestPipelineContextCancellation: a cancelled context aborts RunPipeline
// promptly and leaves no goroutines behind.
func TestPipelineContextCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	insts, err := benchgen.Suite("QF_NIA", 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		core.RunPipeline(ctx, insts[0].Constraint, core.Config{Timeout: 30 * time.Second}, nil)
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("RunPipeline ignored context cancellation")
	}
	settleGoroutines(t, before)
}

// settleGoroutines waits for the goroutine count to return to (near) its
// baseline, failing with a stack dump if it does not.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines did not settle: %d now vs %d before\n%s",
		runtime.NumGoroutine(), base, buf[:n])
}

// TestSolveSingleJobHook: Engine.Solve must behave like ExecuteJob, hit
// the cache on a repeat, and expose its counters through a registry.
func TestSolveSingleJobHook(t *testing.T) {
	c := parse(t, `(set-logic QF_NIA)
(declare-fun x () Int)
(assert (= (* x x) 49))
(check-sat)`)
	job := engine.Job{
		Kind:       engine.KindPipeline,
		Constraint: c,
		Config:     core.Config{Timeout: 2 * time.Second, Deterministic: true},
	}
	eng := engine.New(2, engine.NewCache())
	reg := metrics.NewRegistry()
	eng.Register(reg)

	first := eng.Solve(context.Background(), job)
	if first.CacheHit {
		t.Error("first solve reported a cache hit")
	}
	second := eng.Solve(context.Background(), job)
	if !second.CacheHit {
		t.Error("second identical solve missed the cache")
	}
	if first.Pipeline.Outcome != second.Pipeline.Outcome {
		t.Errorf("cached outcome differs: %v vs %v", first.Pipeline.Outcome, second.Pipeline.Outcome)
	}
	snap := reg.Snapshot()
	if snap["staub_cache_hits_total"] != int64(1) || snap["staub_cache_misses_total"] != int64(1) {
		t.Errorf("registry cache counters = %v, want 1 hit / 1 miss", snap)
	}
	if hits, misses := eng.Cache().Stats(); hits != 1 || misses != 1 {
		t.Errorf("Stats() = %d/%d, want 1/1", hits, misses)
	}
	if snap["staub_engine_inflight"] != int64(0) {
		t.Errorf("inflight gauge = %v after solves, want 0", snap["staub_engine_inflight"])
	}
	if eng.InFlight() != 0 {
		t.Errorf("InFlight() = %d, want 0", eng.InFlight())
	}
}
