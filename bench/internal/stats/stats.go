// Package stats holds the order statistics the perf benchmark and the
// comparison tool share, so a spread computed by one reads the same in
// the other.
package stats

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// Median returns the median of xs (the mean of the middle pair for even
// lengths), or 0 for an empty sample.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartiles of xs with Python's
// statistics.quantiles(xs, n=4) (its default "exclusive" method), the
// definition the benchmark's spread rule is stated in. Samples shorter
// than two return the single value (or zeros) for both.
func Quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// Spread is the interquartile distance of xs as a share of its median —
// the run-to-run spread the benchmark's bounds are checked against. A
// zero median gives zero when the quartiles agree and +Inf otherwise.
func Spread(xs []float64) float64 {
	q1, q3 := Quartiles(xs)
	med := Median(xs)
	if med == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

// HarrellDavis returns the Harrell–Davis estimate of the p-th quantile
// (0 < p < 1) of xs: a weighted mean of every order statistic, weighted by
// the Beta((n+1)p, (n+1)(1-p)) distribution. Unlike the sample quantile it
// does not jump between the values either side of a gap, which keeps a
// median that sits between two latency modes steady from run to run.
func HarrellDavis(xs []float64, p float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	a, b := p*float64(n+1), (1-p)*float64(n+1)
	// Order statistics whose weight is negligible are skipped: the Beta
	// distribution's mass lies within a few standard deviations of p.
	sd := math.Sqrt(p * (1 - p) / float64(n+2))
	lo := max(0, int(math.Floor((p-10*sd)*float64(n))))
	hi := min(n, int(math.Ceil((p+10*sd)*float64(n))))
	var sum, prev float64
	prev = regIncBeta(a, b, float64(lo)/float64(n))
	for i := lo; i < hi; i++ {
		cur := regIncBeta(a, b, float64(i+1)/float64(n))
		sum += (cur - prev) * s[i]
		prev = cur
	}
	return sum
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction (Numerical Recipes §6.4).
func regIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m < 100000; m++ {
		aa := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-13 {
			break
		}
	}
	return h
}
