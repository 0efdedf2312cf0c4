package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the percentile rule of the choosing-metrics guide: a
// percentile is reported only when at least this many samples lie beyond it.
const minBeyond = 10

// percentileSupported reports whether n samples support percentile p
// (0 < p < 100): at least minBeyond samples must lie beyond it.
func percentileSupported(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= minBeyond
}

// highestSupported returns the highest of the reported percentiles that n
// samples support, or 0 when not even the median qualifies.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 90, 95, 99} {
		if percentileSupported(n, p) {
			best = p
		}
	}
	return best
}

// percentile returns the p-th percentile (nearest rank) of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median returns the median of values (not necessarily sorted); NaN when
// empty. The input is not modified.
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) computes them (exclusive method), so
// the spreads printed by -compare match the ones the benchmark contract
// is judged by. It needs at least two values.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durationsMs converts and sorts a latency sample for percentile lookups.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}
