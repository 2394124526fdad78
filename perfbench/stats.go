package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: below that, the "p95" of a run is one or two samples and reads
// as noise rather than a tail.
const minBeyond = 10

// percentile returns the p-th quantile (0 < p < 1) of xs by linear
// interpolation between order statistics. It refuses when fewer than
// minBeyond samples lie beyond the requested rank.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if beyond := float64(n) * (1 - p); beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples: %.1f beyond it, need %d", p*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	if lo+1 >= n {
		return s[n-1], nil
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo]), nil
}

// median is the plain middle value of a small set (the per-pass setup
// times of one run); unlike percentile it takes any non-empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, 0 when b is 0 (a layer that did no work reports 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pctOrZero is percentile for per-layer metrics, which report 0 when the
// layer did no work on a workload. A layer that did work but too little
// for the percentile is an error: it means the run is too short.
func pctOrZero(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, nil
	}
	return percentile(xs, p)
}
