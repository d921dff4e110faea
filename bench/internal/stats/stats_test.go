package stats

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := Quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := Quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles = %v, %v; want 1, 3", q1, q3)
	}
}

func TestHarrellDavis(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	if m := HarrellDavis(xs, 0.5); math.Abs(m-50) > 1e-6 {
		t.Errorf("median of 0..100 = %v, want 50", m)
	}
	if q := HarrellDavis(xs, 0.95); math.Abs(q-95) > 0.5 {
		t.Errorf("p95 of 0..100 = %v, want about 95", q)
	}
	if got := HarrellDavis([]float64{7}, 0.5); got != 7 {
		t.Errorf("single value = %v", got)
	}
	// Half the sample at 1, half at 100: the estimate moves smoothly with
	// one value crossing the gap instead of jumping to the other mode.
	split := func(low int) []float64 {
		out := make([]float64, 200)
		for i := range out {
			out[i] = 100
			if i < low {
				out[i] = 1
			}
		}
		return out
	}
	a, b := HarrellDavis(split(99), 0.5), HarrellDavis(split(101), 0.5)
	if a < b || a-b > 20 {
		t.Errorf("estimates either side of the gap: %v and %v", a, b)
	}
}
