package engine

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"staub/internal/metrics"
	"staub/internal/pipeline"
)

// Key returns the job's content address: a hash of the canonical SMT-LIB
// script of the constraint, the job kind, and the Config in the JSON form
// the peer wire ships, so every knob that can change the verdict or the
// reported cost is hashed without a hand-kept field list. A KindSolve key
// hashes only the fields SolveOriginal reads. Pipeline jobs additionally
// hash the resolved pass list the configuration assembles
// (pipeline.PassNamesFor), so a future pass added to or removed from the
// chain changes the address even if no knob does. Two jobs with equal keys
// are interchangeable, so the cache may serve one's result for the other.
func (j Job) Key() string {
	c := j.Config
	var passes []string
	if j.Kind == KindSolve {
		c = pipeline.Config{Profile: c.Profile, Timeout: c.Timeout, Seed: c.Seed, Deterministic: c.Deterministic}
	} else {
		passes = pipeline.PassNamesFor(c)
	}
	cfg, err := json.Marshal(c)
	if err != nil {
		panic(fmt.Sprintf("engine: Config does not marshal: %v", err))
	}
	h := sha256.New()
	io.WriteString(h, j.Constraint.Script())
	fmt.Fprintf(h, "|kind=%d|%s|passes=%s", j.Kind, cfg, strings.Join(passes, ","))
	return hex.EncodeToString(h.Sum(nil))
}

// RemoteFunc is the cache's optional remote tier, consulted between a
// local miss and a local compute (staub-serve's peer pool installs one).
// It receives the job, its content address, and a `local` continuation
// that runs the compute this cache would otherwise run itself — under
// the context the remote tier passes it, so a hedged local solve can be
// cancelled when the remote answer wins the race. The remote tier
// returns the result to memoize under the key plus the usual keep flag;
// implementations fall back to calling local when the remote path cannot
// serve (that is the contract that keeps a dead remote tier invisible).
type RemoteFunc func(ctx context.Context, key string, j Job, local func(context.Context) (Result, bool)) (Result, bool)

// Cache is a content-addressed solve cache with in-flight deduplication:
// the first request for a key computes, every concurrent or later request
// for the same key waits for (or reads) that result. It is safe for
// concurrent use and may be shared across engines and batches — staub-bench
// shares one across all experiments of an `all` run, so a suite regenerated
// for a later table never re-solves an instance an earlier one measured.
//
// A cache may be bounded (NewCacheWithLimit): memoized entries form an
// LRU and the least-recently-served one is evicted past the cap. Entries
// still computing are never evicted — eviction only forgets results, it
// cannot break in-flight deduplication.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	lru     *list.List // completed keys, most recently used at front
	limit   int        // max completed entries (0: unbounded)

	remote atomic.Pointer[RemoteFunc]

	hits      metrics.Counter
	misses    metrics.Counter
	evictions metrics.Counter
}

type cacheEntry struct {
	done chan struct{} // closed once res is valid
	res  Result
	elem *list.Element // LRU position once memoized (nil while in flight)
}

// NewCache returns an empty, unbounded cache.
func NewCache() *Cache {
	return NewCacheWithLimit(0)
}

// NewCacheWithLimit returns an empty cache holding at most limit
// memoized results (0: unbounded). Bounding the local tier matters once
// a remote tier multiplies the key population a node sees.
func NewCacheWithLimit(limit int) *Cache {
	if limit < 0 {
		limit = 0
	}
	return &Cache{entries: map[string]*cacheEntry{}, lru: list.New(), limit: limit}
}

// SetRemote installs (or, with nil, removes) the cache's remote tier.
// Install before serving traffic; the hook is consulted on every local
// miss by do's compute path.
func (c *Cache) SetRemote(f RemoteFunc) {
	if f == nil {
		c.remote.Store(nil)
		return
	}
	c.remote.Store(&f)
}

// Remote returns the installed remote tier (nil when none).
func (c *Cache) Remote() RemoteFunc {
	if p := c.remote.Load(); p != nil {
		return *p
	}
	return nil
}

// do returns the cached result for key, or computes it with f. The second
// return of f reports whether the result may be memoized (false for runs
// cut short by cancellation). do's own second return reports a cache hit.
//
// do is panic-safe: if f panics, the in-flight entry is removed and its
// waiters are released with a faulted unknown result before the panic
// propagates, so a poisoned job can neither deadlock concurrent identical
// jobs nor leave a permanently wedged entry in the cache.
func (c *Cache) do(key string, f func() (Result, bool)) (Result, bool) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		<-e.done
		c.hits.Inc()
		return e.res, true
	}
	e := &cacheEntry{done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	completed := false
	defer func() {
		if completed {
			return
		}
		e.res = Result{Fault: pipeline.FaultPanic, Err: "engine: cached compute panicked"}
		c.mu.Lock()
		delete(c.entries, key)
		c.mu.Unlock()
		close(e.done)
	}()
	res, keep := f()
	completed = true
	e.res = res
	c.mu.Lock()
	if keep {
		e.elem = c.lru.PushFront(key)
		c.evictLocked()
	} else {
		delete(c.entries, key)
	}
	c.mu.Unlock()
	close(e.done)
	c.misses.Inc()
	return res, false
}

// evictLocked drops least-recently-used memoized entries past the cap.
// Callers hold c.mu.
func (c *Cache) evictLocked() {
	if c.limit <= 0 {
		return
	}
	for c.lru.Len() > c.limit {
		oldest := c.lru.Back()
		key := oldest.Value.(string)
		c.lru.Remove(oldest)
		delete(c.entries, key)
		c.evictions.Inc()
	}
}

// Stats reports cache effectiveness: hits counts requests served without a
// fresh solve (including joins on in-flight identical jobs), misses counts
// solves actually run.
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Value(), c.misses.Value()
}

// Evictions reports how many memoized results the LRU bound has dropped.
func (c *Cache) Evictions() int64 { return c.evictions.Value() }

// Register exposes the cache's hit/miss/eviction counters through reg, so
// a server or CLI scraping the registry reads the same counters Stats
// reports.
func (c *Cache) Register(reg *metrics.Registry) {
	reg.RegisterCounter("staub_cache_hits_total", nil, &c.hits)
	reg.RegisterCounter("staub_cache_misses_total", nil, &c.misses)
	reg.RegisterCounter("staub_cache_evictions_total", nil, &c.evictions)
}

// Len reports the number of memoized results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
