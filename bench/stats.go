package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartile of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method), so spreads computed here match the ones an outside checker
// computes from the same runs. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	ld, m, n := len(s), len(s)+1, 4
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return q(1), q(3), true
}

// spread is the distance between the quartiles as a share of the median
// (ok=false with fewer than two values or a zero median).
func spread(xs []float64) (float64, bool) {
	q1, q3, ok := quartiles(xs)
	med := median(xs)
	if !ok || med == 0 {
		return 0, false
	}
	return (q3 - q1) / math.Abs(med), true
}

// percentile is the nearest-rank q-th percentile (q in (0,100]) of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(float64(len(s)) * q / 100))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tail returns the highest of p99.9, p99, p90 and p50 that has at least
// ten samples beyond it, with a label naming the percentile and the
// sample count. With fewer than twenty samples it returns the maximum.
func tail(xs []float64) (float64, string) {
	n := len(xs)
	for _, q := range []float64{99.9, 99, 90, 50} {
		rank := int(math.Ceil(float64(n) * q / 100))
		if n-rank >= 10 {
			return percentile(xs, q), fmt.Sprintf("p%g n=%d", q, n)
		}
	}
	if n == 0 {
		return 0, "n=0"
	}
	return percentile(xs, 100), fmt.Sprintf("max n=%d", n)
}

// geomeanRatio is the geometric mean of ratios, minus one.
func geomeanRatio(ratios []float64) float64 {
	if len(ratios) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range ratios {
		sum += math.Log(r)
	}
	return math.Exp(sum/float64(len(ratios))) - 1
}

// series collects repeated host measurements of one quantity per unit,
// keyed by unit name, so a pass total can be taken as the sum of per-unit
// medians: one slow execution moves a unit's median only when it repeats.
type series map[string][]float64

func (s series) add(unit string, v float64) { s[unit] = append(s[unit], v) }

func (s series) med(unit string) float64 { return median(s[unit]) }

// sumMed sums the per-unit medians, in sorted unit order.
func (s series) sumMed() float64 {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	total := 0.0
	for _, k := range keys {
		total += median(s[k])
	}
	return total
}
