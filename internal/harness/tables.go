package harness

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"staub/internal/benchgen"
	"staub/internal/core"
	"staub/internal/engine"
	"staub/internal/solver"
	"staub/internal/status"
)

// allModes is the fixed presentation/aggregation order of the modes.
// Iterating Record.Modes through it (instead of ranging over the map)
// keeps floating-point accumulation order — and therefore rendered tables
// — identical across runs.
var allModes = []Mode{ModeStaub, ModeFixed8, ModeFixed16, ModeOver}

// Table1 prints the paper's Table 1: the decidability/boundedness summary
// for the four unbounded logics. The facts are theoretical (Papadimitriou
// for LIA bounds, Matiyasevich for NIA undecidability, Tarski for real
// decidability); the table is reproduced for completeness.
func Table1(w io.Writer) {
	fmt.Fprintln(w, "Table 1. Summary of theoretical results for unbounded SMT theories.")
	fmt.Fprintf(w, "%-32s %-11s %-23s %s\n", "Logic", "Decidable?", "Theoretically Bounded?", "Practically Bounded?")
	rows := [][4]string{
		{"Linear Integer Arithmetic", "Yes", "Yes", "No"},
		{"Nonlinear Integer Arithmetic", "No", "No", "No"},
		{"Linear Real Arithmetic", "Yes", "No", "No"},
		{"Nonlinear Real Arithmetic", "Yes", "No", "No"},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-32s %-11s %-23s %s\n", r[0], r[1], r[2], r[3])
	}
}

// logicOrder sorts records into the paper's presentation order.
var logicOrder = map[string]int{"QF_NIA": 0, "QF_LIA": 1, "QF_NRA": 2, "QF_LRA": 3}

func shortLogic(l string) string { return strings.TrimPrefix(l, "QF_") }

// Table2 prints tractability improvement counts per logic and profile for
// the fixed-width ablations and STAUB inference, plus the intersection
// column (solved by neither profile originally, by at least one after
// arbitrage) and the unsat-provenance columns: how many instance×profile
// measurements the unbounded oracle proved unsat, and how many the
// over-approximation mode proved unsat soundly without it.
func Table2(w io.Writer, records map[string][]Record) {
	fmt.Fprintln(w, "Table 2. Tractability improvements (original timeout → decided verdict).")
	fmt.Fprintf(w, "%-5s | %7s %7s %7s | %7s %7s %7s | %7s %7s %7s | %6s %6s\n",
		"", "prima", "", "", "secunda", "", "", "both∩", "", "", "unsat", "")
	fmt.Fprintf(w, "%-5s | %7s %7s %7s | %7s %7s %7s | %7s %7s %7s | %6s %6s\n",
		"Logic", "8-bit", "16-bit", "STAUB", "8-bit", "16-bit", "STAUB", "8-bit", "16-bit", "STAUB", "orig", "over")
	logics := sortedLogics(records)
	for _, logic := range logics {
		recs := records[logic]
		counts := map[solver.Profile]map[Mode]int{
			solver.Prima:   {},
			solver.Secunda: {},
		}
		// Intersection: instances unknown under every profile originally,
		// and rescued under at least one profile for the mode.
		preUnknown := map[string]int{}
		rescued := map[string]map[Mode]bool{}
		perProfile := map[string]int{}
		unsatOrig, unsatOver := 0, 0
		for _, r := range recs {
			perProfile[r.Inst.Name]++
			for _, m := range []Mode{ModeFixed8, ModeFixed16, ModeStaub} {
				if r.Tractability(m) {
					counts[r.Profile][m]++
					if rescued[r.Inst.Name] == nil {
						rescued[r.Inst.Name] = map[Mode]bool{}
					}
					rescued[r.Inst.Name][m] = true
				}
			}
			if r.PreStatus == status.Unknown {
				preUnknown[r.Inst.Name]++
			}
			if r.PreStatus == status.Unsat {
				unsatOrig++
			}
			if r.Modes[ModeOver].Status == status.Unsat {
				unsatOver++
			}
		}
		inter := map[Mode]int{}
		for name, nUnknown := range preUnknown {
			if nUnknown < perProfile[name] {
				continue // solved originally by some profile
			}
			for m, ok := range rescued[name] {
				if ok {
					inter[m]++
				}
			}
		}
		fmt.Fprintf(w, "%-5s | %7d %7d %7d | %7d %7d %7d | %7d %7d %7d | %6d %6d\n",
			shortLogic(logic),
			counts[solver.Prima][ModeFixed8], counts[solver.Prima][ModeFixed16], counts[solver.Prima][ModeStaub],
			counts[solver.Secunda][ModeFixed8], counts[solver.Secunda][ModeFixed16], counts[solver.Secunda][ModeStaub],
			inter[ModeFixed8], inter[ModeFixed16], inter[ModeStaub],
			unsatOrig, unsatOver)
	}
}

func sortedLogics(records map[string][]Record) []string {
	logics := make([]string, 0, len(records))
	for l := range records {
		logics = append(logics, l)
	}
	sort.Slice(logics, func(i, j int) bool { return logicOrder[logics[i]] < logicOrder[logics[j]] })
	return logics
}

// Interval is a T_pre band for Table 3's breakdown.
type Interval struct {
	Name string
	Min  time.Duration
}

// Intervals mirrors the paper's 0-300 / 1-300 / 60-300 / 180-300 bands as
// fractions of the timeout.
func Intervals(timeout time.Duration) []Interval {
	return []Interval{
		{Name: "all", Min: 0},
		{Name: "≥1/300", Min: timeout / 300},
		{Name: "≥1/5", Min: timeout / 5},
		{Name: "≥3/5", Min: timeout * 3 / 5},
	}
}

// Table3Row is one logic × profile × interval measurement.
type Table3Row struct {
	Logic    string
	Profile  solver.Profile
	Interval Interval
	Count    int
	// Per mode: decided-case count (verified sat, or ModeOver's sound
	// unsat), decided-case geomean speedup, overall geomean speedup.
	Verified map[Mode]int
	VerSpeed map[Mode]float64
	AllSpeed map[Mode]float64
}

// Table3Rows computes the Table 3 statistics.
func Table3Rows(records map[string][]Record, timeout time.Duration) []Table3Row {
	var rows []Table3Row
	for _, logic := range sortedLogics(records) {
		for _, profile := range []solver.Profile{solver.Prima, solver.Secunda} {
			for _, iv := range Intervals(timeout) {
				row := Table3Row{
					Logic: logic, Profile: profile, Interval: iv,
					Verified: map[Mode]int{},
					VerSpeed: map[Mode]float64{},
					AllSpeed: map[Mode]float64{},
				}
				perModeVer := map[Mode][]float64{}
				perModeAll := map[Mode][]float64{}
				for _, r := range records[logic] {
					if r.Profile != profile || r.TPre < iv.Min {
						continue
					}
					row.Count++
					for _, m := range allModes {
						if _, ok := r.Modes[m]; !ok {
							continue
						}
						alpha := r.Alpha(m)
						perModeAll[m] = append(perModeAll[m], alpha)
						if r.Modes[m].Decided() {
							row.Verified[m]++
							perModeVer[m] = append(perModeVer[m], alpha)
						}
					}
				}
				for m, v := range perModeVer {
					row.VerSpeed[m] = GeoMean(v)
				}
				for m, v := range perModeAll {
					row.AllSpeed[m] = GeoMean(v)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows
}

// Table3 prints the full speedup table.
func Table3(w io.Writer, records map[string][]Record, timeout time.Duration) {
	fmt.Fprintln(w, "Table 3. Geometric mean speedups per logic, solver profile and T_pre interval.")
	fmt.Fprintf(w, "%-5s %-8s %-7s %6s | %5s %8s %8s | %5s %8s %8s | %5s %8s %8s | %8s\n",
		"Logic", "Solver", "T_pre", "Count",
		"#v8", "v8-spd", "all8",
		"#v16", "v16-spd", "all16",
		"#vS", "vS-spd", "allS", "Over")
	for _, row := range Table3Rows(records, timeout) {
		fmt.Fprintf(w, "%-5s %-8s %-7s %6d | %5d %8.3f %8.3f | %5d %8.3f %8.3f | %5d %8.3f %8.3f | %8.3f\n",
			shortLogic(row.Logic), row.Profile, row.Interval.Name, row.Count,
			row.Verified[ModeFixed8], orOne(row.VerSpeed[ModeFixed8]), orOne(row.AllSpeed[ModeFixed8]),
			row.Verified[ModeFixed16], orOne(row.VerSpeed[ModeFixed16]), orOne(row.AllSpeed[ModeFixed16]),
			row.Verified[ModeStaub], orOne(row.VerSpeed[ModeStaub]), orOne(row.AllSpeed[ModeStaub]),
			orOne(row.AllSpeed[ModeOver]))
	}
}

func orOne(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

// OverTable prints the over-approximation experiment: per logic, where
// the unbounded oracle's verdicts came from, what the over leg decided
// on its own (sound unsats, verified sats, reverts), the flip count
// (instances both decided with DIFFERENT verdicts — zero by soundness),
// the rescues (oracle unknown, over leg decided), and the geomean
// speedup over the oracle's unsat instances, where the sound-unsat
// shortcut is the whole point.
func OverTable(w io.Writer, records map[string][]Record) {
	fmt.Fprintln(w, "Over-approximation: sound unsat without the unbounded backstop.")
	fmt.Fprintf(w, "%-5s %6s | %6s %6s %6s | %6s %6s %6s | %5s %7s | %8s\n",
		"Logic", "n", "o-sat", "o-uns", "o-unk",
		"sound⊥", "ver-sat", "revert", "flips", "rescued", "unsat-α")
	for _, logic := range sortedLogics(records) {
		var n, oSat, oUns, oUnk, soundUnsat, verSat, revert, flips, rescued int
		var unsatAlphas []float64
		for _, r := range records[logic] {
			n++
			switch r.PreStatus {
			case status.Sat:
				oSat++
			case status.Unsat:
				oUns++
			default:
				oUnk++
			}
			over := r.Modes[ModeOver]
			switch {
			case over.Status == status.Unsat:
				soundUnsat++
			case over.Verified:
				verSat++
			default:
				revert++
			}
			if over.Decided() && r.PreStatus != status.Unknown && !StatusAgree(over.Status, r.PreStatus) {
				flips++
			}
			if over.Decided() && r.PreStatus == status.Unknown {
				rescued++
			}
			if r.PreStatus == status.Unsat {
				unsatAlphas = append(unsatAlphas, r.Alpha(ModeOver))
			}
		}
		alpha := 1.0
		if len(unsatAlphas) > 0 {
			alpha = GeoMean(unsatAlphas)
		}
		fmt.Fprintf(w, "%-5s %6d | %6d %6d %6d | %6d %6d %6d | %5d %7d | %8.3f\n",
			shortLogic(logic), n, oSat, oUns, oUnk,
			soundUnsat, verSat, revert, flips, rescued, alpha)
	}
}

// Figure7CSV emits the scatter data: one row per instance and profile with
// the original and portfolio-final solving times in milliseconds.
func Figure7CSV(w io.Writer, records map[string][]Record) {
	fmt.Fprintln(w, "logic,solver,instance,family,t_pre_ms,t_final_ms,verified")
	for _, logic := range sortedLogics(records) {
		for _, r := range records[logic] {
			fmt.Fprintf(w, "%s,%s,%s,%s,%.3f,%.3f,%t\n",
				logic, r.Profile, r.Inst.Name, r.Inst.Family,
				float64(r.TPre.Microseconds())/1000,
				float64(r.FinalTime(ModeStaub).Microseconds())/1000,
				r.Modes[ModeStaub].Verified)
		}
	}
}

// Figure7Check verifies the portfolio invariant over the records: no
// instance finishes slower than its original run. It returns the number
// of violations (always 0 by construction; exported for tests and the
// EXPERIMENTS.md narrative).
func Figure7Check(records map[string][]Record) int {
	violations := 0
	for _, recs := range records {
		for _, r := range recs {
			if r.FinalTime(ModeStaub) > r.TPre {
				violations++
			}
		}
	}
	return violations
}

// MeanInferredWidth computes the average bitvector width STAUB's
// inference selects over the integer corpora (the paper reports 13.1
// across its suite).
func MeanInferredWidth(o Options) (float64, error) {
	o = o.withDefaults()
	sum, n := 0, 0
	for _, logic := range []string{"QF_NIA", "QF_LIA"} {
		if o.Counts[logic] == 0 {
			continue
		}
		insts, err := benchgen.Suite(logic, o.Counts[logic], o.Seed)
		if err != nil {
			return 0, err
		}
		for _, inst := range insts {
			tr, _, err := core.Transform(inst.Constraint, core.Config{Timeout: time.Second})
			if err != nil || tr.Width == 0 {
				continue
			}
			sum += tr.Width
			n++
		}
	}
	if n == 0 {
		return 0, nil
	}
	return float64(sum) / float64(n), nil
}

// Figure2Point is one fixed-width measurement for a logic.
type Figure2Point struct {
	Logic string
	Width int
	// RelTime is the geomean pipeline time relative to the 16-bit width.
	RelTime float64
	// ChangedPct is the percentage of instances whose bounded verdict
	// differs from the unbounded one (among instances decided both ways).
	ChangedPct float64
}

// Figure2 runs the naive fixed-width sweep of Figure 2: for each logic and
// width, transform every instance at that width, solve the bounded form
// directly, and compare both cost (2a) and verdict (2b) against the
// unbounded original. Like Run, it schedules all solves through the
// engine under deterministic virtual time.
func Figure2(ctx context.Context, o Options, widths []int) ([]Figure2Point, error) {
	o = o.withDefaults()
	if len(widths) == 0 {
		widths = []int{8, 12, 16, 24, 32, 48, 64}
	}
	// Job layout per logic: one oracle pre-solve per instance, then one
	// pipeline job per (width, instance).
	type logicPlan struct {
		logic  string
		insts  []benchgen.Instance
		oracle []int         // instance → job index
		pipe   map[int][]int // width → instance → job index
	}
	var jobs []engine.Job
	var plans []logicPlan
	for _, logic := range benchgen.Logics() {
		n := o.Counts[logic]
		if n == 0 {
			continue
		}
		insts, err := benchgen.Suite(logic, n, o.Seed)
		if err != nil {
			return nil, err
		}
		lp := logicPlan{logic: logic, insts: insts, pipe: map[int][]int{}}
		for _, inst := range insts {
			lp.oracle = append(lp.oracle, len(jobs))
			jobs = append(jobs, engine.Job{
				Kind:       engine.KindSolve,
				Constraint: inst.Constraint,
				Config: core.Config{
					Profile:       solver.Prima,
					Timeout:       o.Timeout,
					Deterministic: true,
				},
			})
		}
		for _, width := range widths {
			for _, inst := range insts {
				lp.pipe[width] = append(lp.pipe[width], len(jobs))
				jobs = append(jobs, engine.Job{
					Kind:       engine.KindPipeline,
					Constraint: inst.Constraint,
					Config: core.Config{
						Timeout:       o.Timeout,
						FixedWidth:    width,
						Deterministic: true,
					},
				})
			}
		}
		plans = append(plans, lp)
	}
	results := engine.New(o.Jobs, o.Cache).Run(ctx, jobs)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var out []Figure2Point
	for _, lp := range plans {
		insts := lp.insts
		// Unbounded oracle verdicts.
		oracle := make([]status.Status, len(insts))
		for i := range insts {
			oracle[i] = results[lp.oracle[i]].Solve.Status
		}
		times := map[int][]time.Duration{}
		changed := map[int][2]int{} // width → (changed, comparable)
		for _, width := range widths {
			for i := range insts {
				p := results[lp.pipe[width][i]].Pipeline
				total := p.Total
				if total > o.Timeout {
					total = o.Timeout
				}
				times[width] = append(times[width], total)
				// Bounded verdict: what a naive user of the transformed
				// constraint would conclude.
				var bounded status.Status
				switch p.Outcome {
				case core.OutcomeVerified, core.OutcomeSemanticDifference:
					bounded = status.Sat
				case core.OutcomeBoundedUnsat:
					bounded = status.Unsat
				default:
					bounded = status.Unknown
				}
				if oracle[i] != status.Unknown && bounded != status.Unknown {
					c := changed[width]
					c[1]++
					if bounded != oracle[i] {
						c[0]++
					}
					changed[width] = c
				}
			}
		}
		// Normalize against the 16-bit column (the paper's baseline);
		// fall back to the first requested width if 16 was not swept.
		baseWidth := 16
		if _, ok := times[16]; !ok {
			baseWidth = widths[0]
		}
		base := GeoMeanDurations(times[baseWidth])
		if base == 0 {
			base = 1e-9
		}
		for _, width := range widths {
			pt := Figure2Point{Logic: lp.logic, Width: width}
			pt.RelTime = GeoMeanDurations(times[width]) / base
			if c := changed[width]; c[1] > 0 {
				pt.ChangedPct = 100 * float64(c[0]) / float64(c[1])
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// Figure2Print renders the sweep as two aligned tables.
func Figure2Print(w io.Writer, points []Figure2Point) {
	fmt.Fprintln(w, "Figure 2a. Geomean solving time relative to 16 bits (naive fixed-width transform).")
	printFig2(w, points, func(p Figure2Point) float64 { return p.RelTime }, "%8.3f")
	fmt.Fprintln(w, "Figure 2b. %% of constraints whose verdict differs from the unbounded original.")
	printFig2(w, points, func(p Figure2Point) float64 { return p.ChangedPct }, "%8.1f")
}

func printFig2(w io.Writer, points []Figure2Point, f func(Figure2Point) float64, format string) {
	byLogic := map[string][]Figure2Point{}
	var widths []int
	seenW := map[int]bool{}
	for _, p := range points {
		byLogic[p.Logic] = append(byLogic[p.Logic], p)
		if !seenW[p.Width] {
			seenW[p.Width] = true
			widths = append(widths, p.Width)
		}
	}
	sort.Ints(widths)
	fmt.Fprintf(w, "%-7s", "width")
	for _, width := range widths {
		fmt.Fprintf(w, "%8d", width)
	}
	fmt.Fprintln(w)
	logics := make([]string, 0, len(byLogic))
	for l := range byLogic {
		logics = append(logics, l)
	}
	sort.Slice(logics, func(i, j int) bool { return logicOrder[logics[i]] < logicOrder[logics[j]] })
	for _, logic := range logics {
		fmt.Fprintf(w, "%-7s", shortLogic(logic))
		pts := map[int]Figure2Point{}
		for _, p := range byLogic[logic] {
			pts[p.Width] = p
		}
		for _, width := range widths {
			fmt.Fprintf(w, format, f(pts[width]))
		}
		fmt.Fprintln(w)
	}
}
