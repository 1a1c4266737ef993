package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile of xs (0 when xs is empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median averages the two middle samples of an even-sized set.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tailLadder holds the percentiles a report may quote beside the median.
var tailLadder = []float64{75, 90, 95, 99, 99.9}

// supportedTail is the highest ladder percentile that still has at least ten
// of n samples beyond it; 50 when not even p75 does.
func supportedTail(n int) float64 {
	best := 50.0
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // the ladder's decimals are not exact in binary
			best = p
		}
	}
	return best
}

// quartileSpread is (Q3-Q1)/median with the quartiles Python's
// statistics.quantiles(xs, n=4) gives, the rule the regression gate applies.
// Fewer than two samples have no spread.
func quartileSpread(xs []float64) float64 {
	m := len(xs)
	if m < 2 {
		return 0
	}
	s := sorted(xs)
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
