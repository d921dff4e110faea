package main

import "testing"

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	lower := rule{bound: 0.1}
	for _, tc := range []struct {
		name    string
		a, b    []float64
		r       rule
		verdict string
	}{
		{"faster on every pair is a gain", steady, scaled(steady, 0.8), lower, "gain"},
		{"a gain needs ten pairs", steady[:9], scaled(steady[:9], 0.8), lower, "ok"},
		{"within the bound", steady, scaled(steady, 1.05), lower, "ok"},
		{"past the bound", steady, scaled(steady, 1.2), lower, "regression"},
		{"higher-is-better past the bound", steady, scaled(steady, 0.8), rule{higher: true, bound: 0.1}, "regression"},
		{"noisy parent", []float64{50, 150, 100, 60, 140}, []float64{120, 120, 120, 120, 120}, lower, "unresolved"},
		{"noisy parent, change better on every run", []float64{50, 150, 100, 60, 140}, []float64{10, 11, 12, 10, 11}, lower, "ok"},
		{"per-layer has no bound", steady, scaled(steady, 1.5), rule{}, "-"},
	} {
		if got := judge(tc.a, tc.b, tc.r).verdict; got != tc.verdict {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.verdict)
		}
	}
}

func TestRunsMustReplayTheSameRequests(t *testing.T) {
	six := []run{{Units: 6}, {Units: 6}}
	if err := sameRequests("w", six, six); err != nil {
		t.Errorf("equal units refused: %v", err)
	}
	if err := sameRequests("w", six, []run{{Units: 6}, {Units: 2}}); err == nil {
		t.Error("runs of 6 and 2 units compared")
	}
}

func TestErrorRatio(t *testing.T) {
	if got := errorRatio([]run{{Attempted: 100}, {Attempted: 300}}); got != 0 {
		t.Errorf("no failures: %g", got)
	}
	if got := errorRatio([]run{{Attempted: 100, Failed: 1}, {Attempted: 300, Failed: 3}}); got != 0.01 {
		t.Errorf("4 of 400 failed: %g", got)
	}
}
