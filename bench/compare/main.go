// Command compare reads two sets of perf result files (written by
// `perf -out`), a parent side and a change side, and prints for every
// (metric, workload) each side's median and quartiles with a verdict:
//
//   - gain: at least 10 pairs, the change wins at least 9 in 10 (ties
//     count for neither), and the medians differ by more than the parent's
//     interquartile distance;
//   - regression: the change's median is worse than the parent's by more
//     than the metric's bound in BENCHMARK.json;
//   - unresolved: the parent's spread is wider than the bound, so "no
//     regression" cannot be told apart from noise (unless every change run
//     reads better than every parent run);
//   - ok: within the bound.
//
// error_ratio (failed over attempted operations) is judged exactly: any
// rise is a regression. Runs pair up in file order, so alternate the sides
// when collecting them. Every run of a workload must have replayed the
// same corpus units (the same -seconds); compare refuses runs that did not.
// It then prints the per-row report of the cold workloads: every instance
// whose verdict or exact bounded-solve work changed, with its work ratio,
// so no aggregate can hide a slow row. It exits 1 when any metric
// regressed.
//
//	go run ./compare -base 'runs/base-*.json' -change 'runs/change-*.json'
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"staub/bench/internal/stats"
)

type metric struct {
	Value float64 `json:"value"`
}

type row struct {
	Name      string `json:"name"`
	Status    string `json:"status"`
	SolveWork *int64 `json:"bounded_solve_work"`
}

type run struct {
	Workload  string            `json:"workload"`
	Units     int               `json:"units"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	E2E       map[string]metric `json:"end_to_end"`
	Layers    map[string]metric `json:"per_layer"`
	Rows      []row             `json:"rows"`
}

type resultsFile struct {
	Workloads []run `json:"workloads"`
}

// spec is the part of BENCHMARK.json compare applies.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// rule is how one metric is judged.
type rule struct {
	higher bool
	bound  float64 // 0: per-layer, no bound
}

func main() {
	base := flag.String("base", "", "glob of the parent's result files")
	change := flag.String("change", "", "glob of the change's result files")
	bench := flag.String("benchmark", "", "BENCHMARK.json (default: found from the working directory)")
	flag.Parse()
	code, err := compare(os.Stdout, *base, *change, *bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func compare(w io.Writer, baseGlob, changeGlob, benchPath string) (int, error) {
	if baseGlob == "" || changeGlob == "" {
		return 0, errors.New("both -base and -change are required")
	}
	rules, err := loadRules(benchPath)
	if err != nil {
		return 0, err
	}
	a, err := load(baseGlob)
	if err != nil {
		return 0, err
	}
	b, err := load(changeGlob)
	if err != nil {
		return 0, err
	}
	for _, wl := range sortedKeys(a) {
		if err := sameRequests(wl, a[wl], b[wl]); err != nil {
			return 0, err
		}
	}
	code := 0
	fmt.Fprintf(w, "%-16s %-34s %-27s %-27s %8s %6s  %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "better", "wins", "verdict")
	for _, wl := range sortedKeys(a) {
		if _, ok := b[wl]; !ok {
			continue
		}
		ea, eb := errorRatio(a[wl]), errorRatio(b[wl])
		errVerdict := "ok"
		if eb > ea {
			errVerdict, code = "regression", 1
		}
		fmt.Fprintf(w, "%-16s %-34s %-27.4g %-27.4g %8s %6s  %s\n", wl, "error_ratio", ea, eb, "", "", errVerdict)
		av, bv := values(a[wl]), values(b[wl])
		for _, name := range sortedKeys(av) {
			r, known := rules[name]
			if _, ok := bv[name]; !ok || !known {
				continue
			}
			v := judge(av[name], bv[name], r)
			if v.verdict == "regression" {
				code = 1
			}
			fmt.Fprintf(w, "%-16s %-34s %-27s %-27s %+7.1f%% %6s  %s\n", wl, name,
				quart(av[name]), quart(bv[name]), 100*v.delta, fmt.Sprintf("%d/%d", v.wins, v.pairs), v.verdict)
		}
	}
	for _, wl := range sortedKeys(a) {
		if _, ok := b[wl]; ok {
			rowReport(w, wl, a[wl], b[wl])
		}
	}
	return code, nil
}

// verdict is one (metric, workload) judgement.
type verdict struct {
	delta       float64 // relative change of the medians, positive = better
	wins, pairs int
	verdict     string
}

// judge applies the gain rule and the metric's bound to the parent's
// values a and the change's values b.
func judge(a, b []float64, r rule) verdict {
	medA, medB := stats.Median(a), stats.Median(b)
	better := func(x, y float64) bool { // x reads better than y
		if r.higher {
			return x > y
		}
		return x < y
	}
	var v verdict
	if medA != 0 {
		v.delta = (medB - medA) / math.Abs(medA)
		if !r.higher {
			v.delta = -v.delta
		}
	}
	v.pairs = min(len(a), len(b))
	for i := 0; i < v.pairs; i++ {
		if better(b[i], a[i]) {
			v.wins++
		}
	}
	q1, q3 := stats.Quartiles(a)
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case v.pairs >= 10 && 10*v.wins >= 9*v.pairs && better(medB, medA) && math.Abs(medB-medA) > q3-q1:
		v.verdict = "gain"
	case r.bound == 0:
		v.verdict = "-" // per-layer: no bound
	case stats.Spread(a) > r.bound && !allBetter:
		v.verdict = "unresolved"
	case -v.delta > r.bound:
		v.verdict = "regression"
	default:
		v.verdict = "ok"
	}
	return v
}

// rowReport prints the cold-corpus rows whose verdict or exact
// bounded-solve work differs between the sides' first runs, each with its
// work ratio (parent ÷ change: above 1 is less work), and the geomean
// with the count of rows that got worse next to it.
func rowReport(w io.Writer, wl string, a, b []run) {
	ra, rb := rowsOf(a), rowsOf(b)
	if len(ra) == 0 || len(rb) == 0 {
		return
	}
	var lines []string
	var logSum float64
	n, worse := 0, 0
	for _, name := range sortedKeys(ra) {
		x, ok := rb[name]
		if !ok {
			continue
		}
		p := ra[name]
		ratioText := ""
		if p.SolveWork != nil && x.SolveWork != nil && *p.SolveWork > 0 && *x.SolveWork > 0 {
			ratio := float64(*p.SolveWork) / float64(*x.SolveWork)
			logSum += math.Log(ratio)
			n++
			if ratio < 1 {
				worse++
			}
			if ratio != 1 {
				ratioText = fmt.Sprintf("work %d -> %d (%.2fx)", *p.SolveWork, *x.SolveWork, ratio)
			}
		}
		if p.Status != x.Status || ratioText != "" {
			lines = append(lines, fmt.Sprintf("  %-36s %s -> %s  %s", name, p.Status, x.Status, ratioText))
		}
	}
	fmt.Fprintf(w, "\n%s: %d rows changed", wl, len(lines))
	if n > 0 {
		fmt.Fprintf(w, "; bounded-solve work geomean %.3fx over %d rows, %d rows worse", math.Exp(logSum/float64(n)), n, worse)
	}
	fmt.Fprintln(w)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
}

func rowsOf(runs []run) map[string]row {
	out := map[string]row{}
	if len(runs) > 0 {
		for _, r := range runs[0].Rows {
			out[r.Name] = r
		}
	}
	return out
}

// load reads every result file the glob names, grouping runs by workload
// in file order.
func load(glob string) (map[string][]run, error) {
	files, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no result files match %q", glob)
	}
	sort.Strings(files)
	out := map[string][]run{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rf resultsFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, r := range rf.Workloads {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, nil
}

// sameRequests refuses a workload whose runs replayed different request
// multisets: a run's corpus units follow from its -seconds, and runs of
// different lengths measure different work.
func sameRequests(wl string, a, b []run) error {
	units := a[0].Units
	for _, r := range append(append([]run(nil), a...), b...) {
		if r.Units != units {
			return fmt.Errorf("%s: runs of %d and %d corpus units replay different requests; compare runs made with the same -seconds", wl, units, r.Units)
		}
	}
	return nil
}

// errorRatio is failed over attempted operations across runs. It is 0 on
// a correct build, so it is judged exactly: any rise is a regression.
func errorRatio(runs []run) float64 {
	var failed, attempted float64
	for _, r := range runs {
		failed += float64(r.Failed)
		attempted += float64(r.Attempted)
	}
	if attempted == 0 {
		return 0
	}
	return failed / attempted
}

// values collects each metric's values across runs, in run order.
func values(runs []run) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range runs {
		for _, g := range []map[string]metric{r.E2E, r.Layers} {
			for name, m := range g {
				out[name] = append(out[name], m.Value)
			}
		}
	}
	return out
}

func loadRules(path string) (map[string]rule, error) {
	if path == "" {
		for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
			if _, err := os.Stat(p); err == nil {
				path = p
				break
			}
		}
		if path == "" {
			return nil, errors.New("BENCHMARK.json not found; pass -benchmark")
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	rules := map[string]rule{}
	for _, m := range s.EndToEnd {
		rules[m.Name] = rule{higher: m.Better == "higher", bound: m.Bound}
	}
	for _, m := range s.PerLayer {
		rules[m.Name] = rule{higher: m.Better == "higher"}
	}
	return rules, nil
}

func quart(xs []float64) string {
	q1, q3 := stats.Quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", stats.Median(xs), q1, q3)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
