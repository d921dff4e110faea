// Package chaos is the repository's deterministic fault-injection
// framework. Production code marks its fault-containment boundaries with
// named sites (the pipeline's per-pass boundary, the engine's job
// dispatch, the server's request handling); when an Injector is enabled,
// each visit to a site deterministically decides — from the seed, the
// site name and the site's visit ordinal alone — whether to inject one of
// four fault classes there:
//
//   - FaultPassPanic: panic at the site (exercises recover paths),
//   - FaultSolverStall: wedge at the site until a watchdog or deadline
//     cancels it (exercises per-pass watchdogs),
//   - FaultBudgetBlowup: report a pathological amount of consumed budget
//     (exercises work-budget ceilings),
//   - FaultTransientError: fail the operation with a retryable error
//     (exercises retry/degradation paths).
//
// When no injector is enabled — the production default — every site
// compiles down to one atomic pointer load, so the hooks cost nothing on
// the hot path (BENCH_5.json measured about 1.00x). Every injection is
// counted in package-level staub_chaos_injected_total{fault=...} counters
// so test suites can assert that observed degradations match injected
// faults exactly.
package chaos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"staub/internal/metrics"
)

// Fault is one injectable fault class.
type Fault int

// Fault classes. FaultNone means "no fault at this visit".
const (
	FaultNone Fault = iota
	// FaultPassPanic panics at the injection site.
	FaultPassPanic
	// FaultSolverStall wedges at the site until cancelled (or a cap).
	FaultSolverStall
	// FaultBudgetBlowup inflates the work the site reports as consumed.
	FaultBudgetBlowup
	// FaultTransientError fails the operation with a retryable error.
	FaultTransientError

	numFaults
)

func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultPassPanic:
		return "pass-panic"
	case FaultSolverStall:
		return "solver-stall"
	case FaultBudgetBlowup:
		return "budget-blowup"
	case FaultTransientError:
		return "transient-error"
	default:
		return fmt.Sprintf("Fault(%d)", int(f))
	}
}

// ParseFault is the inverse of Fault.String for CLI flags and specs.
func ParseFault(s string) (Fault, error) {
	for f := FaultNone; f < numFaults; f++ {
		if f.String() == s {
			return f, nil
		}
	}
	return FaultNone, fmt.Errorf("chaos: unknown fault class %q", s)
}

// Injected is the panic value a FaultPassPanic injection raises, so
// recover paths (and log readers) can tell injected panics from real
// bugs.
type Injected struct {
	// Site is the injection site that panicked.
	Site string
	// Seq is the site-local visit ordinal that was hit.
	Seq int64
}

func (i Injected) Error() string {
	return fmt.Sprintf("chaos: injected panic at %s (visit %d)", i.Site, i.Seq)
}

// Config selects what an Injector injects.
type Config struct {
	// Seed drives the deterministic per-visit injection decisions.
	Seed int64
	// Rate is the injection probability per site visit in [0, 1]. The
	// decision is a pure function of (Seed, site, visit ordinal), so the
	// same single-threaded visit sequence always gets the same faults.
	Rate float64
	// Fault is the fault class to inject (FaultNone injects nothing).
	Fault Fault
	// Max, when positive, stops injecting after that many faults in
	// total — the "hit exactly one job" knob for targeted tests.
	Max int64
	// Sites, when non-empty, restricts injection to the named sites.
	Sites []string
	// StallFor caps how long one FaultSolverStall wedges when nothing
	// cancels it (default 30s: in practice a watchdog or deadline fires
	// first, and the cap only keeps an unwatched site from hanging a
	// test binary forever).
	StallFor time.Duration
	// BlowupWork is the amount of bogus work units a FaultBudgetBlowup
	// reports (default 1<<40, far beyond any legitimate budget).
	BlowupWork int64
}

// Injector decides fault injection for a Config. Injectors are safe for
// concurrent use; per-site visit ordinals are tracked independently so a
// site's decision sequence does not depend on other sites' traffic.
type Injector struct {
	cfg      Config
	sites    map[string]bool
	injected atomic.Int64

	mu     sync.Mutex
	visits map[string]*atomic.Int64
}

// NewInjector returns an injector for cfg (not yet enabled).
func NewInjector(cfg Config) *Injector {
	if cfg.StallFor <= 0 {
		cfg.StallFor = 30 * time.Second
	}
	if cfg.BlowupWork <= 0 {
		cfg.BlowupWork = 1 << 40
	}
	inj := &Injector{cfg: cfg, visits: map[string]*atomic.Int64{}}
	if len(cfg.Sites) > 0 {
		inj.sites = make(map[string]bool, len(cfg.Sites))
		for _, s := range cfg.Sites {
			inj.sites[s] = true
		}
	}
	return inj
}

// Injected reports how many faults this injector has injected.
func (inj *Injector) Injected() int64 { return inj.injected.Load() }

// Config returns the injector's (defaulted) configuration.
func (inj *Injector) Config() Config { return inj.cfg }

func (inj *Injector) seq(site string) *atomic.Int64 {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	n, ok := inj.visits[site]
	if !ok {
		n = &atomic.Int64{}
		inj.visits[site] = n
	}
	return n
}

// at decides the fault for one visit of site.
func (inj *Injector) at(site string) (Fault, int64) {
	if inj.cfg.Fault == FaultNone || inj.cfg.Rate <= 0 {
		return FaultNone, 0
	}
	if inj.sites != nil && !inj.sites[site] {
		return FaultNone, 0
	}
	n := inj.seq(site).Add(1) - 1
	if !decide(inj.cfg.Seed, site, n, inj.cfg.Rate) {
		return FaultNone, 0
	}
	// Respect Max without losing determinism: the decision above is
	// seed-pure; Max only gates how many decided faults actually fire.
	if inj.cfg.Max > 0 {
		for {
			cur := inj.injected.Load()
			if cur >= inj.cfg.Max {
				return FaultNone, 0
			}
			if inj.injected.CompareAndSwap(cur, cur+1) {
				break
			}
		}
	} else {
		inj.injected.Add(1)
	}
	injectedTotal[inj.cfg.Fault].Inc()
	return inj.cfg.Fault, n
}

// decide hashes (seed, site, ordinal) into [0,1) and compares with rate.
// splitmix64 over the fold of the inputs: cheap, stateless, and stable
// across platforms.
func decide(seed int64, site string, n int64, rate float64) bool {
	if rate >= 1 {
		return true
	}
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(site); i++ {
		h = (h ^ uint64(site[i])) * 0x100000001b3
	}
	h ^= uint64(n) * 0xff51afd7ed558ccd
	// splitmix64 finalizer.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11)/(1<<53) < rate
}

// active is the enabled injector; nil (the production default) makes
// every site a single atomic load.
var active atomic.Pointer[Injector]

// Enable installs inj as the process-wide injector and returns a restore
// function that re-installs whatever was active before (tests defer it).
// Passing nil disables injection.
func Enable(inj *Injector) (restore func()) {
	prev := active.Swap(inj)
	return func() { active.Store(prev) }
}

// Disable removes any active injector.
func Disable() { active.Store(nil) }

// Enabled reports whether an injector is active.
func Enabled() bool { return active.Load() != nil }

// At reports the fault to inject at this visit of site: FaultNone unless
// an injector is enabled and selects this visit. This is the fast path
// every instrumented site calls; with chaos disabled it is one atomic
// load and a nil check.
func At(site string) Fault {
	inj := active.Load()
	if inj == nil {
		return FaultNone
	}
	f, _ := inj.at(site)
	return f
}

// PanicAt panics with an Injected value when a pass-panic fault is due at
// site. Sites whose only interesting fault class is a panic use this
// one-liner instead of switching on At.
func PanicAt(site string) {
	inj := active.Load()
	if inj == nil {
		return
	}
	if f, n := inj.at(site); f == FaultPassPanic {
		panic(Injected{Site: site, Seq: n})
	}
}

// StallCap returns the active injector's stall cap (the package default
// when no injector is enabled, for symmetry in tests).
func StallCap() time.Duration {
	if inj := active.Load(); inj != nil {
		return inj.cfg.StallFor
	}
	return 30 * time.Second
}

// BlowupWork returns the active injector's budget-blowup magnitude.
func BlowupWork() int64 {
	if inj := active.Load(); inj != nil {
		return inj.cfg.BlowupWork
	}
	return 1 << 40
}

// Stall wedges the caller like a stuck pass: it sleeps in small slices
// until cancelled reports true, max elapses, or the package stall cap is
// hit, and returns how long it actually stalled. cancelled may be nil.
func Stall(max time.Duration, cancelled func() bool) time.Duration {
	if cap := StallCap(); max <= 0 || max > cap {
		max = cap
	}
	const slice = time.Millisecond
	start := time.Now()
	for {
		if cancelled != nil && cancelled() {
			return time.Since(start)
		}
		elapsed := time.Since(start)
		if elapsed >= max {
			return elapsed
		}
		d := max - elapsed
		if d > slice {
			d = slice
		}
		time.Sleep(d)
	}
}

// injectedTotal counts injections per fault class across the process
// lifetime (enable/disable cycles included), mirroring how the pipeline's
// pass aggregates persist. Every fault but FaultNone is declared on
// metrics.Process as staub_chaos_injected_total{fault=...}.
var injectedTotal [numFaults]metrics.Counter

func init() {
	for f := FaultPassPanic; f < numFaults; f++ {
		metrics.Process.RegisterCounter("staub_chaos_injected_total",
			metrics.Labels{"fault": f.String()}, &injectedTotal[f])
	}
}

// Snapshot reports the per-fault injection totals keyed by fault name.
func Snapshot() map[string]int64 {
	out := make(map[string]int64, int(numFaults)-1)
	for f := FaultPassPanic; f < numFaults; f++ {
		out[f.String()] = injectedTotal[f].Value()
	}
	return out
}

// ParseSpec parses a comma-separated chaos specification of the form
//
//	fault=pass-panic,rate=0.01,seed=7,max=3,stall=250ms,sites=pass:translate+engine:job
//
// into a Config. An empty spec yields the zero Config (injection off).
// This is the wire format of staub-serve's -chaos flag and the README's
// chaos-mode examples.
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	cfg.Rate = 1 // a spec that names only a fault injects every visit
	if strings.TrimSpace(spec) == "" {
		return Config{}, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Config{}, fmt.Errorf("chaos: malformed spec element %q (want key=value)", part)
		}
		var err error
		switch key {
		case "fault":
			cfg.Fault, err = ParseFault(val)
		case "rate":
			cfg.Rate, err = strconv.ParseFloat(val, 64)
			if err == nil && (cfg.Rate < 0 || cfg.Rate > 1) {
				err = fmt.Errorf("chaos: rate %v outside [0, 1]", cfg.Rate)
			}
		case "seed":
			cfg.Seed, err = strconv.ParseInt(val, 10, 64)
		case "max":
			cfg.Max, err = strconv.ParseInt(val, 10, 64)
		case "stall":
			cfg.StallFor, err = time.ParseDuration(val)
		case "blowup":
			cfg.BlowupWork, err = strconv.ParseInt(val, 10, 64)
		case "sites":
			cfg.Sites = strings.Split(val, "+")
			sort.Strings(cfg.Sites)
		default:
			return Config{}, fmt.Errorf("chaos: unknown spec key %q", key)
		}
		if err != nil {
			return Config{}, fmt.Errorf("chaos: bad %s in spec: %v", key, err)
		}
	}
	if cfg.Fault == FaultNone {
		return Config{}, fmt.Errorf("chaos: spec %q names no fault class", spec)
	}
	return cfg, nil
}
