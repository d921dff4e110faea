package harness

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"staub/internal/solver"
)

// smallOptions keeps harness tests quick: a few instances per logic and a
// short timeout.
func smallOptions() Options {
	return Options{
		Timeout: 250 * time.Millisecond,
		Seed:    5,
		Counts:  map[string]int{"QF_NIA": 10, "QF_LIA": 8, "QF_NRA": 6, "QF_LRA": 4},
		Modes:   []Mode{ModeStaub},
	}
}

func TestRunProducesRecords(t *testing.T) {
	records, err := Run(context.Background(), smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	for logic, recs := range records {
		if len(recs) == 0 {
			t.Errorf("%s: no records", logic)
		}
		profiles := map[solver.Profile]bool{}
		for _, r := range recs {
			profiles[r.Profile] = true
			if r.TPre <= 0 {
				t.Errorf("%s/%s: TPre = %v", logic, r.Inst.Name, r.TPre)
			}
			if _, ok := r.Modes[ModeStaub]; !ok {
				t.Errorf("%s/%s: missing STAUB mode", logic, r.Inst.Name)
			}
		}
		if !profiles[solver.Prima] || !profiles[solver.Secunda] {
			t.Errorf("%s: both profiles should be measured, got %v", logic, profiles)
		}
	}
}

// TestPortfolioInvariant: FinalTime never exceeds TPre — the paper's
// "no constraint gets slower" guarantee (Figure 7: nothing above the
// diagonal).
func TestPortfolioInvariant(t *testing.T) {
	records, err := Run(context.Background(), smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	if v := Figure7Check(records); v != 0 {
		t.Errorf("%d portfolio violations", v)
	}
	for logic, recs := range records {
		for _, r := range recs {
			if r.Alpha(ModeStaub) < 1 {
				t.Errorf("%s/%s: alpha %.3f < 1", logic, r.Inst.Name, r.Alpha(ModeStaub))
			}
		}
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean(nil); got != 1 {
		t.Errorf("GeoMean(nil) = %v", got)
	}
	got := GeoMean([]float64{1, 4})
	if math.Abs(got-2) > 1e-9 {
		t.Errorf("GeoMean(1, 4) = %v, want 2", got)
	}
	got = GeoMean([]float64{2, 2, 2})
	if math.Abs(got-2) > 1e-9 {
		t.Errorf("GeoMean(2,2,2) = %v, want 2", got)
	}
}

func TestTable1Output(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	out := buf.String()
	for _, want := range []string{"Nonlinear Integer Arithmetic", "No", "Yes", "Decidable?"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2And3Render(t *testing.T) {
	o := smallOptions()
	o.Modes = []Mode{ModeStaub, ModeFixed8, ModeFixed16, ModeOver}
	records, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	Table2(&buf, records)
	if !strings.Contains(buf.String(), "NIA") || !strings.Contains(buf.String(), "STAUB") {
		t.Errorf("Table2 malformed:\n%s", buf.String())
	}
	buf.Reset()
	Table3(&buf, records, o.Timeout)
	out := buf.String()
	if !strings.Contains(out, "LRA") || !strings.Contains(out, "Over") {
		t.Errorf("Table3 malformed:\n%s", out)
	}

	rows := Table3Rows(records, o.Timeout)
	if len(rows) == 0 {
		t.Fatal("no Table3 rows")
	}
	for _, row := range rows {
		for m, v := range row.AllSpeed {
			if v < 0.999 {
				t.Errorf("%s/%v/%s: overall speedup %v < 1 for %v", row.Logic, row.Profile, row.Interval.Name, v, m)
			}
		}
		for m, n := range row.Verified {
			if n > row.Count {
				t.Errorf("%s: more verified (%d) than measured (%d) for %v", row.Logic, n, row.Count, m)
			}
		}
	}
}

func TestFigure7CSV(t *testing.T) {
	records, err := Run(context.Background(), smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	Figure7CSV(&buf, records)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("CSV too short:\n%s", buf.String())
	}
	if lines[0] != "logic,solver,instance,family,t_pre_ms,t_final_ms,verified" {
		t.Errorf("bad header: %s", lines[0])
	}
	want := 0
	for _, recs := range records {
		want += len(recs)
	}
	if len(lines)-1 != want {
		t.Errorf("CSV rows = %d, want %d", len(lines)-1, want)
	}
}

func TestFigure2SweepSmall(t *testing.T) {
	o := Options{
		Timeout: 200 * time.Millisecond,
		Seed:    5,
		Counts:  map[string]int{"QF_NIA": 6, "QF_LIA": 4, "QF_NRA": 2, "QF_LRA": 2},
	}
	points, err := Figure2(context.Background(), o, []int{8, 16, 32})
	if err != nil {
		t.Fatal(err)
	}
	// Every logic × width combination present; 16-bit is the unit baseline.
	byLogic := map[string]map[int]Figure2Point{}
	for _, p := range points {
		if byLogic[p.Logic] == nil {
			byLogic[p.Logic] = map[int]Figure2Point{}
		}
		byLogic[p.Logic][p.Width] = p
	}
	for logic, widths := range byLogic {
		if len(widths) != 3 {
			t.Errorf("%s: %d widths", logic, len(widths))
		}
		base := widths[16].RelTime
		if math.Abs(base-1) > 1e-6 {
			t.Errorf("%s: 16-bit baseline RelTime = %v, want 1", logic, base)
		}
		for w, p := range widths {
			if p.ChangedPct < 0 || p.ChangedPct > 100 {
				t.Errorf("%s/%d: ChangedPct = %v", logic, w, p.ChangedPct)
			}
		}
	}
	var buf bytes.Buffer
	Figure2Print(&buf, points)
	if !strings.Contains(buf.String(), "Figure 2a") || !strings.Contains(buf.String(), "Figure 2b") {
		t.Errorf("Figure2Print malformed:\n%s", buf.String())
	}
}

func TestIntervalsScale(t *testing.T) {
	ivs := Intervals(300 * time.Second)
	if len(ivs) != 4 {
		t.Fatalf("intervals = %d", len(ivs))
	}
	if ivs[1].Min != time.Second {
		t.Errorf("second interval min = %v, want 1s (the paper's 1-300 band)", ivs[1].Min)
	}
	if ivs[3].Min != 180*time.Second {
		t.Errorf("fourth interval min = %v, want 180s", ivs[3].Min)
	}
}

func TestModeString(t *testing.T) {
	if ModeStaub.String() != "STAUB" || ModeOver.String() != "STAUB+Over" {
		t.Error("mode names changed")
	}
}

func TestRecordAlphaUnverifiedIsOne(t *testing.T) {
	r := Record{
		TPre:  time.Second,
		Modes: map[Mode]ModeResult{ModeStaub: {Total: time.Millisecond, Verified: false}},
	}
	if got := r.Alpha(ModeStaub); got != 1 {
		t.Errorf("unverified alpha = %v, want 1 (revert)", got)
	}
	r.Modes[ModeStaub] = ModeResult{Total: 100 * time.Millisecond, Verified: true}
	if got := r.Alpha(ModeStaub); math.Abs(got-10) > 1e-9 {
		t.Errorf("verified alpha = %v, want 10", got)
	}
}
