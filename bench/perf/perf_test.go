package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"staub/internal/pipeline"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestWorkloadsEmitEveryMetric runs every workload at a tiny scale, traced,
// and checks that it passes the oracle and emits every metric
// BENCHMARK.json names, with its unit.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, perf has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, err := lookupWorkload(sw.Name)
		if err != nil {
			t.Fatal(err)
		}
		limit := 6 // requests; conversations for sessions
		if w.kind == kindSession {
			limit = 1
		}
		t.Run(w.name, func(t *testing.T) {
			res, err := run(context.Background(), runConfig{w: w, seed: 1, units: 1, limit: limit, hot: 8, sample: 4, calib: 1, trace: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %q", res.Attempted, res.Failed, res.Failures)
			}
			for _, m := range spec.EndToEnd {
				if got, ok := res.E2E[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end %s: got %+v (present %t), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			for _, m := range spec.PerLayer {
				if got, ok := res.Layers[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v (present %t), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if n := len(res.E2E) + len(res.Layers); n != len(spec.EndToEnd)+len(spec.PerLayer) {
				t.Errorf("emitted %d metrics, BENCHMARK.json names %d", n, len(spec.EndToEnd)+len(spec.PerLayer))
			}
		})
	}
}

// TestDefaultRunLength pins -seconds' default to BENCHMARK.json's
// run_seconds, the length its bounds were measured at.
func TestDefaultRunLength(t *testing.T) {
	if spec := readSpec(t); spec.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds %g, perf -seconds defaults to %d", spec.RunSeconds, defaultSeconds)
	}
}

// TestReplayMatchesPipelineRun pins the traced run's chain replay to the
// assembled pipeline — its configuration, backstop deadline and DirExact
// seeding of the over chain: for every sampled request, both chains must
// reproduce pipeline.Run's outcome, status and SolveWork exactly.
func TestReplayMatchesPipelineRun(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := coldCorpus(root, 1)
	if err != nil {
		t.Fatal(err)
	}
	sample, _ := traceSample(workloads[0], shuffled(corpus, 1), nil, 24)
	ctx := context.Background()
	for _, over := range []bool{false, true} {
		for _, it := range sample {
			want := pipeline.Run(ctx, it.c, pipelineConfig(over), nil)
			got := replay(ctx, it.c, over).st.Res
			if got.Outcome != want.Outcome || got.Status != want.Status || got.SolveWork != want.SolveWork {
				t.Errorf("%s (over %t): replay %v/%v/%d, pipeline.Run %v/%v/%d", it.name, over,
					got.Outcome, got.Status, got.SolveWork, want.Outcome, want.Status, want.SolveWork)
			}
		}
	}
}
