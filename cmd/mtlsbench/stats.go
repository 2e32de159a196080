package main

import (
	"errors"
	"math"
	"sort"
)

// errTooFewSamples is returned by percentile when the tail beyond the
// requested quantile is too thin to be a measurement.
var errTooFewSamples = errors.New("fewer than ten samples beyond the percentile")

// minTail is how many samples must lie beyond a reported percentile: a
// p99 of 400 samples is the mean of four outliers, not a percentile.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of xs by linear
// interpolation between order statistics. It refuses — rather than
// extrapolates — when fewer than minTail samples lie beyond q on the
// far side (above it for q ≥ 0.5, below it otherwise).
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	tail := float64(n) * (1 - q)
	if q < 0.5 {
		tail = float64(n) * q
	}
	if n == 0 || tail+1e-9 < minTail { // 100*(1-0.9) is 9.999… in floats
		return 0, errTooFewSamples
	}
	return quantile(xs, q), nil
}

// quantile is percentile without the sample-count guard, for summaries
// of repeated runs (a median of five runs is still the right summary).
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// spread is the inter-quartile distance of xs as a share of its median,
// with the quartiles Python's statistics.quantiles(xs, n=4) gives (the
// "exclusive" method) — the figure the benchmark contract bounds.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 { // i-th quartile, exclusive method
		const n = 4
		ld := len(s)
		j := i * (ld + 1) / n
		j = max(1, min(j, ld-1))
		delta := float64(i*(ld+1) - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
