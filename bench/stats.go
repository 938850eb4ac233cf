package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile (choosing-metrics §1): with fewer, the percentile is one
// or two outliers, not a property of the system.
const minBeyond = 10

// percentile returns the q-quantile of an ascending slice by nearest
// rank (the smallest value with at least q·n samples at or below it).
// Zero for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// beyond counts the samples strictly past the q-quantile's rank.
func beyond(n int, q float64) int {
	rank := int(math.Ceil(q * float64(n)))
	if rank > n {
		rank = n
	}
	return n - rank
}

// supported reports whether n samples carry the q-quantile under the
// ten-samples-beyond rule.
func supported(n int, q float64) bool { return beyond(n, q) >= minBeyond }

// tailPercentile returns percentile(sorted, q) when the sample
// supports it and 0 otherwise — the form the per-layer tail
// diagnostics (p99, p999) are reported in, so a thin tail reads as
// "not measured" instead of as a number.
func tailPercentile(sorted []float64, q float64) float64 {
	if !supported(len(sorted), q) {
		return 0
	}
	return percentile(sorted, q)
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), because that
// is how the driver computes the spread the bounds are judged by.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
