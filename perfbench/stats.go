package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie beyond a reported tail, so
// that a tail is never decided by a handful of outliers. Each workload
// fixes its tail percentiles (workload.closeTail and submitTail) as the
// highest that have this many samples beyond them in a benchmark run.
const tailBeyond = 10

// rank is the 1-based nearest-rank position of the p-th percentile of n
// sorted samples: the smallest with at least p% of them at or below it.
func rank(n, p int) int {
	return max((p*n+99)/100, 1) // ceil(p/100 · n) in exact arithmetic
}

// tailFits reports whether n samples put at least tailBeyond of them
// beyond the p-th percentile.
func tailFits(n, p int) bool { return n-rank(n, p) >= tailBeyond }

// percentile returns the nearest-rank p-th percentile of samples.
func percentile(samples []float64, p int) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	return sortedCopy(samples)[rank(len(samples), p)-1]
}

// tail returns the p-th percentile of samples, or NaN, which fails the
// run, when fewer than tailBeyond samples lie beyond it.
func tail(samples []float64, p int) float64 {
	if !tailFits(len(samples), p) {
		return math.NaN()
	}
	return percentile(samples, p)
}

// median returns the middle sample, or the mean of the middle two.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := sortedCopy(samples)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of samples.
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range samples {
		sum += x
	}
	return sum / float64(len(samples))
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
