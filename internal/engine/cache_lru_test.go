package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"staub/internal/smt"
	"staub/internal/solver"
)

func parseC(t *testing.T, src string) *smt.Constraint {
	t.Helper()
	c, err := smt.ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func fill(c *Cache, keys ...string) {
	for _, k := range keys {
		c.do(k, func() (Result, bool) { return Result{Err: k}, true })
	}
}

// TestCacheLRUEvicts: a bounded cache holds at most its limit of
// memoized results, evicting least-recently-used first.
func TestCacheLRUEvicts(t *testing.T) {
	c := NewCacheWithLimit(3)
	fill(c, "a", "b", "c")
	if c.Len() != 3 || c.Evictions() != 0 {
		t.Fatalf("len=%d evictions=%d after 3 inserts (limit 3)", c.Len(), c.Evictions())
	}
	fill(c, "d") // evicts a (oldest)
	if c.Len() != 3 || c.Evictions() != 1 {
		t.Fatalf("len=%d evictions=%d after 4th insert", c.Len(), c.Evictions())
	}
	// a must recompute; b/c/d must still be memoized.
	recomputed := false
	c.do("a", func() (Result, bool) { recomputed = true; return Result{}, true })
	if !recomputed {
		t.Error("evicted key a served from cache")
	}
	for _, k := range []string{"c", "d"} {
		if _, hit := c.do(k, func() (Result, bool) { return Result{}, true }); !hit {
			t.Errorf("key %s evicted although newer than the cap", k)
		}
	}
}

// TestCacheLRUTouchOnHit: serving a key refreshes its recency, changing
// which entry the next eviction drops.
func TestCacheLRUTouchOnHit(t *testing.T) {
	c := NewCacheWithLimit(3)
	fill(c, "a", "b", "c")
	// Touch a: recency order becomes a, c, b (b oldest).
	if _, hit := c.do("a", func() (Result, bool) { return Result{}, true }); !hit {
		t.Fatal("warm key a missed")
	}
	fill(c, "d") // evicts b
	if _, hit := c.do("a", func() (Result, bool) { return Result{}, true }); !hit {
		t.Error("recently touched key a was evicted")
	}
	missed := false
	c.do("b", func() (Result, bool) { missed = true; return Result{}, true })
	if !missed {
		t.Error("stale key b survived past the cap")
	}
}

// TestCacheLRUNeverEvictsInFlight: entries still computing don't count
// against the cap and are never evicted — eviction only forgets results,
// it cannot break in-flight deduplication.
func TestCacheLRUNeverEvictsInFlight(t *testing.T) {
	c := NewCacheWithLimit(1)
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.do("slow", func() (Result, bool) {
			close(started)
			<-release
			return Result{Err: "slow"}, true
		})
	}()
	<-started
	fill(c, "x", "y") // churns the memoized side while slow is in flight
	// A concurrent identical job must still join the in-flight slow run.
	var joined Result
	wg.Add(1)
	go func() {
		defer wg.Done()
		joined, _ = c.do("slow", func() (Result, bool) {
			t.Error("in-flight entry was lost: identical job recomputed")
			return Result{}, false
		})
	}()
	close(release)
	wg.Wait()
	if joined.Err != "slow" {
		t.Errorf("joined result = %q, want the in-flight run's", joined.Err)
	}
}

// TestCacheUnboundedNeverEvicts: the default (limit 0) keeps everything.
func TestCacheUnboundedNeverEvicts(t *testing.T) {
	c := NewCache()
	for i := 0; i < 500; i++ {
		fill(c, fmt.Sprintf("k%d", i))
	}
	if c.Len() != 500 || c.Evictions() != 0 {
		t.Errorf("len=%d evictions=%d, want 500 and 0", c.Len(), c.Evictions())
	}
}

// poolOffCorpus mixes sat, unsat and undecided constraints over QF_NIA,
// QF_LIA and QF_BV for the pool-off parity check.
var poolOffCorpus = []struct{ name, src string }{
	{"cube-sum", `(set-logic QF_NIA)
		(declare-fun x () Int)(declare-fun y () Int)(declare-fun z () Int)
		(assert (= (+ (* x x x) (* y y y) (* z z z)) 855))(check-sat)`},
	{"square-root", `(set-logic QF_NIA)
		(declare-fun x () Int)
		(assert (= (* x x) 1369))(assert (> x 0))(check-sat)`},
	{"product", `(set-logic QF_NIA)
		(declare-fun x () Int)(declare-fun y () Int)
		(assert (= (* x y) 391))(assert (> x 1))(assert (> y x))(check-sat)`},
	{"interval-gap", `(set-logic QF_LIA)
		(declare-fun x () Int)
		(assert (< x 7))(assert (> x 7))(check-sat)`},
	{"distinct-sum", `(set-logic QF_LIA)
		(declare-fun u () Int)(declare-fun v () Int)(declare-fun w () Int)
		(assert (and (>= u 0) (<= u 2) (>= v 0) (<= v 2) (>= w 0) (<= w 2)))
		(assert (distinct u v w))(assert (= (+ u v w) 4))(check-sat)`},
	{"bv-mix", `(set-logic QF_BV)
		(declare-fun a () (_ BitVec 8))(declare-fun b () (_ BitVec 8))
		(assert (= (bvmul a b) (_ bv36 8)))(assert (bvult a b))(check-sat)`},
}

// TestCacheRemoteTierConsulted: with a remote tier installed, a local
// miss consults it; Solve uses it, SolveLocal bypasses it. With no tier
// installed, Solve must be exactly SolveLocal — the same verdict for the
// same deterministic work — so a standalone server pays nothing for the
// pool hook.
func TestCacheRemoteTierConsulted(t *testing.T) {
	cache := NewCache()
	remoteCalls := 0
	cache.SetRemote(func(ctx context.Context, key string, j Job, local func(context.Context) (Result, bool)) (Result, bool) {
		remoteCalls++
		return Result{Err: "remote:" + key}, true
	})
	eng := New(1, cache)
	j := Job{Kind: KindSolve, Constraint: parseC(t, "(declare-fun p () Bool)(assert p)(check-sat)")}

	res := eng.Solve(context.Background(), j)
	if remoteCalls != 1 || res.Err != "remote:"+j.Key() {
		t.Fatalf("remote tier not consulted: calls=%d res=%q", remoteCalls, res.Err)
	}
	// Second Solve: local hit, remote not consulted again.
	res2 := eng.Solve(context.Background(), j)
	if remoteCalls != 1 || !res2.CacheHit {
		t.Errorf("memoized remote result not served locally: calls=%d hit=%t", remoteCalls, res2.CacheHit)
	}

	// SolveLocal on a fresh key must bypass the remote tier entirely.
	j2 := Job{Kind: KindSolve, Constraint: parseC(t, "(declare-fun q () Bool)(assert (not q))(check-sat)")}
	resLocal := eng.SolveLocal(context.Background(), j2)
	if remoteCalls != 1 {
		t.Errorf("SolveLocal consulted the remote tier (%d calls)", remoteCalls)
	}
	if resLocal.Err != "" {
		t.Errorf("SolveLocal result carries error %q", resLocal.Err)
	}
	cache.SetRemote(nil)
	if cache.Remote() != nil {
		t.Error("SetRemote(nil) did not clear the tier")
	}

	for _, inst := range poolOffCorpus {
		job := Job{Kind: KindSolve, Constraint: parseC(t, inst.src),
			Profile: solver.Prima, Timeout: 1500 * time.Millisecond, Deterministic: true}
		// Fresh engines, so neither side sees the other's cache.
		pooled := New(1, NewCache()).Solve(context.Background(), job).Solve
		local := New(1, NewCache()).SolveLocal(context.Background(), job).Solve
		if pooled.Status != local.Status || pooled.Work != local.Work {
			t.Errorf("%s: pool-off Solve %v/%d, SolveLocal %v/%d",
				inst.name, pooled.Status, pooled.Work, local.Status, local.Work)
		}
	}
}
