package main

import (
	"sort"
	"time"
)

// tailMin is how many samples must lie beyond a percentile before it
// counts as resolved: a p99 resting on one or two samples is noise.
const tailMin = 10

// latency summarizes one timing distribution: the median, the p90 and
// p99, the highest percentile with at least tailMin samples beyond it,
// and the sample count they rest on.
type latency struct {
	N   int
	P50 time.Duration
	// P90 and P99 are nearest-rank percentiles whatever the sample
	// count, so they never change meaning between runs; below 10 (100)
	// samples each is the slowest one.
	P90  time.Duration
	P99  time.Duration
	Tail time.Duration
	// TailPct names the percentile Tail holds ("p99" or "p90"); empty
	// when neither has tailMin samples beyond it.
	TailPct string
}

// summarize computes the latency summary of samples (order irrelevant;
// the slice is not modified).
func summarize(samples []time.Duration) latency {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	l := latency{N: len(s)}
	if len(s) == 0 {
		return l
	}
	l.P50 = median(s)
	l.P90 = s[rank(len(s), 0.90)]
	l.P99 = s[rank(len(s), 0.99)]
	for _, p := range []struct {
		name string
		q    float64
	}{{"p99", 0.99}, {"p90", 0.90}} {
		k := rank(len(s), p.q)
		if len(s)-1-k >= tailMin {
			l.Tail, l.TailPct = s[k], p.name
			break
		}
	}
	return l
}

// rank is the nearest-rank index of quantile q among n sorted samples.
func rank(n int, q float64) int {
	k := int(q*float64(n)+0.999999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return k
}

// median of sorted samples (the mean of the middle two for even n).
func median(sorted []time.Duration) time.Duration {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf returns the median of unsorted samples (0 for none).
func medianOf(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return median(s)
}
