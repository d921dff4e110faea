// Command perf is the repository's one performance benchmark: it boots the
// real staub-serve handler in process behind loopback HTTP, drives it
// closed-loop over a fixed, versioned corpus, checks every verdict with an
// independent oracle, and reports end-to-end metrics per workload plus,
// from a separate traced replay, per-layer metrics.
//
// Run it from the bench directory, or through bench/run.sh from the
// repository root:
//
//	go run ./perf -seed 1                      # every workload, e2e and traced
//	go run ./perf -workload pipeline-cold -seed 3 -seconds 15 -trace 0
//
// Each workload runs in fresh child processes (the command re-executes
// itself), so caches, package-level counters and memory start clean; set-up
// is repeated setupRuns times in separate processes and reported as the
// median. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
	"syscall"
	"time"

	"staub/bench/internal/stats"
)

// childEnv marks a re-executed child: "setup" stops once set-up is done,
// "run" measures.
const childEnv = "STAUB_PERF_CHILD"

// setupRuns is how many times a run sets a workload up, in separate
// processes, to report the median set-up time.
const setupRuns = 3

// defaultSeconds is the run length the bounds in BENCHMARK.json were
// measured at, its run_seconds: a run without -seconds replays the same
// requests as the benchmark's own runs.
const defaultSeconds = 15

// sampleSize is how many verdict requests the traced run replays.
const sampleSize = 64

// Requests per corpus unit for the workloads whose corpus is not a list
// of distinct constraints.
const (
	hotUnitRequests = 40000
	warmupRequests  = 8
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runConfig is one measured run of one workload.
type runConfig struct {
	w      *workload
	seed   int64
	units  int
	limit  int // cap on requests (conversations for sessions); 0: none
	hot    int // distinct hot constraints
	sample int // traced-run sample, in verdict requests
	calib  int // engine-calibration instances per logic
	trace  bool
	// ready, when set, is called once set-up is done; setupOnly stops
	// there.
	ready     func()
	setupOnly bool
}

// row is one cold-corpus instance's result in the per-row report.
type row struct {
	Name      string  `json:"name"`
	Family    string  `json:"family"`
	Status    string  `json:"status"`
	Outcome   string  `json:"outcome,omitempty"`
	SolveWork *int64  `json:"bounded_solve_work,omitempty"`
	Winner    string  `json:"winner,omitempty"`
	LatencyMS float64 `json:"latency_ms"`
}

// result is one workload's run.
type result struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Units       int               `json:"units"`
	Requests    int               `json:"verdict_requests"`
	MeasuredS   float64           `json:"measured_s"`
	E2E         map[string]metric `json:"end_to_end"`
	Layers      map[string]metric `json:"per_layer,omitempty"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Failures    []string          `json:"failures,omitempty"`
	Calibration []calib           `json:"calibration,omitempty"`
	Rows        []row             `json:"rows,omitempty"`
	// Verdicts maps each decided constraint (scriptKey) to its verdict,
	// for the cross-workload agreement check.
	Verdicts map[string]string `json:"verdicts"`
}

func main() {
	if mode := os.Getenv(childEnv); mode != "" {
		os.Exit(childMain(os.Args[1:], mode == "setup"))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout, os.Stderr))
}

type flags struct {
	workload string
	seed     int64
	seconds  float64
	trace    string
	out      string
}

func parseFlags(args []string, stderr io.Writer) (flags, error) {
	var f flags
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&f.workload, "workload", "", "workload to run (default: all of "+workloadNames()+")")
	fs.Int64Var(&f.seed, "seed", 1, "request-order seed")
	fs.Float64Var(&f.seconds, "seconds", defaultSeconds, "measured-phase length each workload's request count is sized to, on the reference machine")
	fs.StringVar(&f.trace, "trace", "", `"0": end-to-end metrics only; "1": per-layer metrics only; empty: both`)
	fs.StringVar(&f.out, "out", "", "write the full results (per-row report, calibration, failures) to this JSON file")
	if err := fs.Parse(args); err != nil {
		return f, err
	}
	if fs.NArg() > 0 {
		return f, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	switch f.trace {
	case "", "0", "1":
	default:
		return f, fmt.Errorf("-trace %q: want 0 or 1", f.trace)
	}
	if f.seconds <= 0 {
		return f, fmt.Errorf("-seconds must be positive")
	}
	return f, nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// childMain is a re-executed child: it runs one workload and prints
// "ready" once set-up is done, then (unless setupOnly) its result as one
// JSON line.
func childMain(args []string, setupOnly bool) int {
	f, err := parseFlags(args, os.Stderr)
	if err != nil {
		return 2
	}
	w, err := lookupWorkload(f.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return 2
	}
	cfg := runConfig{
		w: w, seed: f.seed, units: w.unitsFor(f.seconds), hot: hotSize, sample: sampleSize, calib: calibPerLogic,
		trace: f.trace != "0", setupOnly: setupOnly,
		ready: func() { fmt.Println("ready") },
	}
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perf: %s: %v\n", w.name, err)
		return 1
	}
	if setupOnly {
		return 0
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// parentMain runs the selected workloads in child processes and prints
// the report.
func parentMain(args []string, stdout, stderr io.Writer) int {
	f, err := parseFlags(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintln(stderr, "perf:", err)
		return 2
	}
	selected := workloads
	if f.workload != "" {
		w, err := lookupWorkload(f.workload)
		if err != nil {
			fmt.Fprintln(stderr, "perf:", err)
			return 2
		}
		selected = []*workload{w}
	}
	if _, err := repoRoot(); err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 1
	}
	var results []*result
	for _, w := range selected {
		res, err := runWorkload(f, w, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "perf: %s: %v\n", w.name, err)
			return 1
		}
		results = append(results, res)
	}
	crossCheck(results)
	report(stdout, f, results)
	if f.out != "" {
		if err := writeResults(f, results); err != nil {
			fmt.Fprintln(stderr, "perf:", err)
			return 1
		}
	}
	for _, r := range results {
		if r.Failed > 0 {
			return 1
		}
	}
	return 0
}

// runWorkload measures one workload: set-up in setupRuns processes, the
// last of which also measures.
func runWorkload(f flags, w *workload, stderr io.Writer) (*result, error) {
	args := []string{"-workload", w.name, "-seed", fmt.Sprint(f.seed), "-seconds", fmt.Sprint(f.seconds), "-trace", f.trace}
	runs := setupRuns
	if f.trace == "1" {
		runs = 1 // set-up time is an end-to-end metric
	}
	var setups []float64
	for i := 0; i < runs-1; i++ {
		s, _, err := spawn(args, true, stderr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	s, line, err := spawn(args, false, stderr)
	if err != nil {
		return nil, err
	}
	setups = append(setups, s)
	var res result
	if err := json.Unmarshal(line, &res); err != nil {
		return nil, fmt.Errorf("decoding child result: %w", err)
	}
	if f.trace != "1" {
		res.E2E["setup_s"] = metric{Value: stats.Median(setups), Unit: "s"}
	}
	return &res, nil
}

// spawn re-executes this program as a child and returns its set-up time
// (process start to "ready") and its last output line.
func spawn(args []string, setupOnly bool, stderr io.Writer) (float64, []byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, nil, err
	}
	cmd := exec.Command(exe, args...)
	mode := "run"
	if setupOnly {
		mode = "setup"
	}
	cmd.Env = append(os.Environ(), childEnv+"="+mode)
	cmd.Stderr = stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, err
	}
	setup := math.NaN()
	var last []byte
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 256<<20)
	for sc.Scan() {
		if math.IsNaN(setup) && sc.Text() == "ready" {
			setup = time.Since(t0).Seconds()
			continue
		}
		last = append(last[:0], sc.Bytes()...)
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return 0, nil, fmt.Errorf("child: %w", err)
	}
	if scanErr != nil {
		return 0, nil, fmt.Errorf("reading child output: %w", scanErr)
	}
	if math.IsNaN(setup) {
		return 0, nil, errors.New("child never reported ready")
	}
	return setup, last, nil
}

// run sets one workload up, measures it and, when cfg.trace is set, runs
// the traced replay. It runs in the calling process.
func run(ctx context.Context, cfg runConfig) (*result, error) {
	w := cfg.w
	t0 := time.Now()
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	var seq, warm, calibSet []*item
	var cvs, warmConvs []*conversation
	base, err := coldCorpus(root, 1)
	if err != nil {
		return nil, err
	}
	calibSet = calibrationSet(base, cfg.calib)
	switch w.kind {
	case kindCold:
		corpus, err := coldCorpus(root, cfg.units)
		if err != nil {
			return nil, err
		}
		if warm, err = warmupItems(corpus, warmupRequests); err != nil {
			return nil, err
		}
		seq = shuffled(corpus, cfg.seed)
	case kindHot:
		// The first cold unit's first 64 constraints: its benchgen mix and
		// the refinement corpus.
		hot := base[:min(cfg.hot, len(base))]
		warm = hot
		seq = hotSequence(hot, cfg.units*hotUnitRequests, cfg.seed)
	case kindSession:
		all, err := sessionCorpus(root, cfg.units)
		if err != nil {
			return nil, err
		}
		warmConvs = all[:1]
		cvs = shuffled(all, cfg.seed)
	}
	if cfg.limit > 0 {
		seq = seq[:min(cfg.limit, len(seq))]
		cvs = cvs[:min(cfg.limit, len(cvs))]
	}

	srv, ts := startServer()
	defer stopServer(srv, ts)
	o := newOracle()
	var warmup *phase
	if w.kind == kindSession {
		warmup = sessionPhase(ts.URL, warmConvs, w.clients)
	} else {
		warmup = solvePhase(ts.URL, w, warm, w.clients)
	}
	if len(warmup.opFails) > 0 {
		return nil, fmt.Errorf("warm-up: %s", warmup.opFails[0])
	}
	setupS := time.Since(t0).Seconds()
	if cfg.ready != nil {
		cfg.ready()
	}
	if cfg.setupOnly {
		return &result{Workload: w.name}, nil
	}

	hits0, misses0, err := cacheCounters(ts.URL)
	if err != nil {
		return nil, err
	}
	cpu0 := cpuTime()
	var p *phase
	if w.kind == kindSession {
		p = sessionPhase(ts.URL, cvs, w.clients)
	} else {
		p = solvePhase(ts.URL, w, seq, w.clients)
	}
	cpu := cpuTime() - cpu0
	rss := maxRSSMB()
	hits1, misses1, err := cacheCounters(ts.URL)
	if err != nil {
		return nil, err
	}

	// The oracle runs outside the timed phase, over every distinct
	// verdict of the warm-up and the measured phase.
	oracleFails := 0
	for _, ph := range []*phase{warmup, p} {
		for _, it := range sortedItems(ph.distinct) {
			for _, v := range ph.distinct[it] {
				if !o.check(it, v) {
					oracleFails++
				}
			}
		}
	}

	res := &result{
		Workload: w.name, Seed: cfg.seed, Units: cfg.units, Requests: len(p.recs), MeasuredS: p.elapsed.Seconds(),
		Attempted: p.ops, Failed: len(p.opFails) + oracleFails,
		Failures: append(append([]string(nil), p.opFails...), o.failures...),
		Verdicts: o.decided,
		E2E:      map[string]metric{}, Layers: map[string]metric{},
	}
	for name, m := range serving(p, cpu, rss, setupS) {
		if endToEnd[name] {
			res.E2E[name] = m
		} else {
			res.Layers[name] = m
		}
	}
	if w.kind == kindCold {
		res.Rows = rows(w, p)
	}
	if !cfg.trace {
		return res, nil
	}

	sample, sampleConvs := traceSample(w, seq, cvs, cfg.sample)
	layers, table, err := traceLayers(ctx, w, srv, ts.URL, sample, sampleConvs, calibSet)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	layers["engine.cache_hit_ratio"] = metric{Value: ratio(hits1-hits0, hits1-hits0+misses1-misses0), Unit: "ratio"}
	layers["server.error_ratio"] = metric{Value: ratio(float64(res.Failed), float64(res.Attempted)), Unit: "ratio"}
	for name, m := range layers {
		res.Layers[name] = m
	}
	res.Calibration = table
	return res, nil
}

// traceSample is the first n verdict requests of the run: for sessions,
// the checks of the first conversations, whole conversations at a time.
func traceSample(w *workload, seq []*item, cvs []*conversation, n int) ([]*item, []*conversation) {
	if w.kind != kindSession {
		return seq[:min(n, len(seq))], nil
	}
	var sample []*item
	var convs []*conversation
	for _, cv := range cvs {
		if len(sample) >= n {
			break
		}
		convs = append(convs, cv)
		for _, s := range cv.steps {
			if s.op == "check" {
				sample = append(sample, s.check)
			}
		}
	}
	return sample[:min(n, len(sample))], convs
}

// endToEnd names the serving metrics BENCHMARK.json bounds end to end.
// The timed ones — throughput, latency, CPU per verdict — and peak RSS
// are reported with the per-layer metrics instead, in every run: on the
// reference machine their run-to-run spread is wider than the 10% bound an
// end-to-end metric may carry (README.md, Measured spread).
var endToEnd = map[string]bool{"setup_s": true, "decided_ratio": true}

// serving computes the metrics of a measured phase as its clients saw it
// (set-up is filled in by the caller that measured it).
func serving(p *phase, cpu time.Duration, rssMB, setupS float64) map[string]metric {
	lat := make([]float64, 0, len(p.recs))
	decided, inBusy := 0, 0
	for _, r := range p.recs {
		if r.failed {
			continue
		}
		lat = append(lat, msf(r.lat))
		if r.decided {
			decided++
		}
		if r.done <= p.busy {
			inBusy++
		}
	}
	verdicts := float64(len(lat))
	return map[string]metric{
		"setup_s":            {setupS, "s"},
		"throughput_vps":     {ratio(float64(inBusy), p.busy.Seconds()), "verdicts/s"},
		"latency_p50_ms":     {stats.HarrellDavis(lat, 0.50), "ms"},
		"latency_p95_ms":     {stats.HarrellDavis(lat, 0.95), "ms"},
		"decided_ratio":      {ratio(float64(decided), float64(len(p.recs))), "ratio"},
		"cpu_ms_per_verdict": {ratio(msf(cpu), verdicts), "ms"},
		"peak_rss_mb":        {rssMB, "MB"},
	}
}

// rows is the per-row report of a cold workload: every instance's verdict
// and latency, plus the exact bounded-solve work in pipeline mode (a
// deterministic pipeline solve's t_post is its work at the virtual-time
// rate) or the winning leg in portfolio mode.
func rows(w *workload, p *phase) []row {
	out := make([]row, 0, len(p.recs))
	for _, r := range p.recs {
		rw := row{Name: r.item.name, Family: r.item.family, Status: "error", LatencyMS: msf(r.lat)}
		if d := r.detail; d != nil {
			rw.Status, rw.Outcome = d.status, d.outcome
			if w.mode == "pipeline" {
				work := int64(math.Round(d.tpostMS / nominalNsPerUnit * 1e6))
				rw.SolveWork = &work
			} else if r.decided {
				switch {
				case d.fromOver:
					rw.Winner = "over"
				case d.fromSTAUB:
					rw.Winner = "staub"
				default:
					rw.Winner = "unbounded"
				}
			}
		}
		out = append(out, rw)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func sortedItems(m map[*item][]verdict) []*item {
	out := make([]*item, 0, len(m))
	for it := range m {
		out = append(out, it)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// crossCheck fails any constraint two workloads decided differently.
func crossCheck(results []*result) {
	o := newOracle()
	for _, r := range results {
		keys := make([]string, 0, len(r.Verdicts))
		for k := range r.Verdicts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if err := o.agree(k, r.Verdicts[k]); err != nil {
				r.Failed++
				r.Failures = append(r.Failures, fmt.Sprintf("constraint %s: %v (cross-workload)", k, err))
			}
		}
	}
}

// report prints every metric by name with its unit, the calibration
// tables and any failure, then the summary JSON line.
func report(w io.Writer, f flags, results []*result) {
	final := map[string]metric{}
	attempted, failed := 0, 0
	for _, r := range results {
		fmt.Fprintf(w, "== %s (seed %d, %d units, %d verdict requests in %.1f s, %d operations, %d failed)\n",
			r.Workload, r.Seed, r.Units, r.Requests, r.MeasuredS, r.Attempted, r.Failed)
		var groups []map[string]metric
		if f.trace != "1" {
			groups = append(groups, r.E2E)
		}
		if f.trace != "0" {
			groups = append(groups, r.Layers)
		}
		for _, g := range groups {
			for _, name := range sortedNames(g) {
				m := g[name]
				fmt.Fprintf(w, "%-16s %-36s %14.4f %s\n", r.Workload, name, m.Value, m.Unit)
				key := name
				if len(results) > 1 {
					key = r.Workload + "/" + name
				}
				final[key] = m
			}
		}
		if len(r.Calibration) > 0 {
			fmt.Fprintf(w, "%-16s engine calibration (nominal %.0f ns/unit):\n", r.Workload, nominalNsPerUnit)
			for _, c := range r.Calibration {
				flagText := ""
				if c.Flagged {
					flagText = fmt.Sprintf("  DRIFT > %.0fx", driftFlag)
				}
				fmt.Fprintf(w, "%-16s   %-10s %4d solves %9d units %9.1f ms %9.1f ns/unit %6.2fx%s\n",
					r.Workload, c.Engine, c.Solves, c.Work, c.WallMS, c.NsPerUnit, c.Drift, flagText)
			}
		}
		for i, msg := range r.Failures {
			if i == 20 {
				fmt.Fprintf(w, "%-16s   ... %d more failures\n", r.Workload, len(r.Failures)-i)
				break
			}
			fmt.Fprintf(w, "%-16s FAIL %s\n", r.Workload, msg)
		}
		attempted += r.Attempted
		failed += r.Failed
	}
	// Every value is finite (ratios of zero are zero), so this cannot fail.
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, attempted, failed, final})
	fmt.Fprintln(w, string(line))
}

func sortedNames(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// writeResults writes the full results file read by the compare tool.
func writeResults(f flags, results []*result) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(struct {
		Seed      int64     `json:"seed"`
		Seconds   float64   `json:"seconds"`
		Trace     string    `json:"trace"`
		Workloads []*result `json:"workloads"`
	}{f.seed, f.seconds, f.trace, results}); err != nil {
		return err
	}
	return os.WriteFile(f.out, buf.Bytes(), 0o644)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MB (Linux reports
// ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
