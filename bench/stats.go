package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) with its
// default exclusive method, so the spreads -repeat prints are the ones a
// Python harness computes from the same values. It needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	const n = 4
	m := len(s) + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, len(s)-1))
		delta := float64(i*m - j*n)
		q[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance of xs as a share of its median: the
// run-to-run variation BENCHMARK.json's bounds are judged against.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// ratio divides, reading an empty denominator as "layer not exercised".
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
