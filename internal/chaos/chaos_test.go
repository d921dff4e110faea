package chaos

import (
	"strings"
	"sync"
	"testing"
	"time"

	"staub/internal/metrics"
)

func TestDisabledIsNoop(t *testing.T) {
	Disable()
	if Enabled() {
		t.Fatal("Enabled() true with no injector installed")
	}
	for i := 0; i < 100; i++ {
		if f := At("pass:translate"); f != FaultNone {
			t.Fatalf("At with chaos disabled = %v, want FaultNone", f)
		}
	}
	PanicAt("server:solve") // must not panic
}

func TestDeterministicDecisions(t *testing.T) {
	cfg := Config{Seed: 42, Rate: 0.3, Fault: FaultTransientError}
	record := func() []Fault {
		inj := NewInjector(cfg)
		restore := Enable(inj)
		defer restore()
		out := make([]Fault, 0, 200)
		for i := 0; i < 100; i++ {
			out = append(out, At("pass:translate"))
		}
		for i := 0; i < 100; i++ {
			out = append(out, At("engine:job"))
		}
		return out
	}
	a, b := record(), record()
	var hits int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("visit %d: run 1 injected %v, run 2 injected %v", i, a[i], b[i])
		}
		if a[i] != FaultNone {
			hits++
		}
	}
	if hits == 0 || hits == len(a) {
		t.Fatalf("rate 0.3 over %d visits injected %d faults; want a strict subset", len(a), hits)
	}
}

func TestSeedChangesDecisions(t *testing.T) {
	pattern := func(seed int64) string {
		inj := NewInjector(Config{Seed: seed, Rate: 0.5, Fault: FaultPassPanic})
		restore := Enable(inj)
		defer restore()
		var sb strings.Builder
		for i := 0; i < 64; i++ {
			if At("pass:translate") != FaultNone {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
		return sb.String()
	}
	if pattern(1) == pattern(2) {
		t.Fatal("seeds 1 and 2 produced identical injection patterns")
	}
}

func TestSiteFilterAndMax(t *testing.T) {
	inj := NewInjector(Config{
		Seed: 7, Rate: 1, Fault: FaultTransientError,
		Sites: []string{"engine:job"}, Max: 3,
	})
	restore := Enable(inj)
	defer restore()
	for i := 0; i < 10; i++ {
		if f := At("pass:translate"); f != FaultNone {
			t.Fatalf("filtered site injected %v", f)
		}
	}
	var hits int
	for i := 0; i < 10; i++ {
		if At("engine:job") != FaultNone {
			hits++
		}
	}
	if hits != 3 {
		t.Fatalf("Max=3 at rate 1 injected %d faults, want 3", hits)
	}
	if got := inj.Injected(); got != 3 {
		t.Fatalf("Injected() = %d, want 3", got)
	}
}

func TestPanicAt(t *testing.T) {
	restore := Enable(NewInjector(Config{Seed: 1, Rate: 1, Fault: FaultPassPanic, Max: 1}))
	defer restore()
	defer func() {
		v := recover()
		inj, ok := v.(Injected)
		if !ok {
			t.Fatalf("recovered %T (%v), want chaos.Injected", v, v)
		}
		if inj.Site != "server:solve" {
			t.Fatalf("Injected.Site = %q, want server:solve", inj.Site)
		}
	}()
	PanicAt("server:solve")
	t.Fatal("PanicAt did not panic at rate 1")
}

func TestStallRespectsCancel(t *testing.T) {
	var calls int
	d := Stall(time.Second, func() bool { calls++; return calls > 2 })
	if d > 500*time.Millisecond {
		t.Fatalf("cancelled stall lasted %v", d)
	}
	d = Stall(5*time.Millisecond, nil)
	if d < 5*time.Millisecond {
		t.Fatalf("uncancelled stall returned after %v, want >= 5ms", d)
	}
}

func TestConcurrentAt(t *testing.T) {
	restore := Enable(NewInjector(Config{Seed: 3, Rate: 0.5, Fault: FaultBudgetBlowup}))
	defer restore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				At("pass:bounded-solve")
			}
		}()
	}
	wg.Wait()
}

func TestMetricsRegistration(t *testing.T) {
	before := Snapshot()["transient-error"]
	restore := Enable(NewInjector(Config{Seed: 9, Rate: 1, Fault: FaultTransientError, Max: 5}))
	for i := 0; i < 20; i++ {
		At("engine:job")
	}
	restore()
	if got := Snapshot()["transient-error"] - before; got != 5 {
		t.Fatalf("snapshot delta = %d, want 5", got)
	}
	reg := metrics.NewRegistry()
	RegisterMetrics(reg)
	snap := reg.Snapshot()
	key := `staub_chaos_injected_total{fault="transient-error"}`
	if _, ok := snap[key]; !ok {
		t.Fatalf("registry snapshot missing %s: %v", key, snap)
	}
}

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("fault=pass-panic,rate=0.25,seed=11,max=2,stall=250ms,sites=pass:translate+engine:job")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Fault != FaultPassPanic || cfg.Rate != 0.25 || cfg.Seed != 11 || cfg.Max != 2 ||
		cfg.StallFor != 250*time.Millisecond || len(cfg.Sites) != 2 {
		t.Fatalf("ParseSpec = %+v", cfg)
	}
	if cfg, err := ParseSpec(""); err != nil || cfg.Fault != FaultNone {
		t.Fatalf("empty spec = %+v, %v; want zero config, nil error", cfg, err)
	}
	if cfg, err := ParseSpec("fault=solver-stall"); err != nil || cfg.Rate != 1 {
		t.Fatalf("fault-only spec = %+v, %v; want rate 1", cfg, err)
	}
	for _, bad := range []string{"rate=0.5", "fault=nope", "rate=2,fault=pass-panic", "bogus", "wat=1,fault=pass-panic"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestFaultStrings(t *testing.T) {
	want := map[Fault]string{
		FaultNone: "none", FaultPassPanic: "pass-panic", FaultSolverStall: "solver-stall",
		FaultBudgetBlowup: "budget-blowup", FaultTransientError: "transient-error",
	}
	for f, s := range want {
		if f.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(f), f.String(), s)
		}
		got, err := ParseFault(s)
		if s == "none" {
			continue
		}
		if err != nil || got != f {
			t.Errorf("ParseFault(%q) = %v, %v", s, got, err)
		}
	}
}
