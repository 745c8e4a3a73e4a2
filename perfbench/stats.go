package main

import (
	"math"
	"slices"
	"time"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailBeyond = 10

// tailPercentile returns the highest whole percentile p in [50, 99]
// that has at least tailBeyond samples beyond it, and the sample at
// that percentile by the nearest-rank method. With fewer than
// 2*tailBeyond samples no tail exists and it falls back to the median
// rank (p = 50). A run of 1000 samples supports p99; one of 35, p71.
func tailPercentile(xs []float64) (value float64, p int) {
	if len(xs) == 0 {
		return 0, 50
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	p = 50
	for q := 99; q > 50; q-- {
		if n-rank(q, n) >= tailBeyond {
			p = q
			break
		}
	}
	return s[rank(p, n)-1], p
}

// rank is the nearest-rank position (1-based) of percentile p among n
// sorted samples.
func rank(p, n int) int {
	return max(1, int(math.Ceil(float64(p)*float64(n)/100)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// msAll converts durations to milliseconds.
func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// sum adds durations.
func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
