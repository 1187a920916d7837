package main

import (
	"math"
	"sort"
)

// rankQuantile returns the exact quantile of a sorted sample by nearest
// rank: the smallest value with at least bp/10000 of the population at or
// below it. The population is attempted; samples missing from sorted
// (operations that never completed) count as +Inf. The rank is integer
// arithmetic, so p95 of 320 is exactly the 304th value.
func rankQuantile(sorted []uint64, attempted int, bp int) float64 {
	if attempted <= 0 {
		return math.Inf(1)
	}
	rank := (bp*attempted + 9999) / 10000
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		return math.Inf(1)
	}
	return float64(sorted[rank-1])
}

// sortedCopy returns xs sorted ascending, leaving xs as it was.
func sortedCopy(xs []uint64) []uint64 {
	out := append([]uint64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quartiles returns the first quartile, median and third quartile of xs
// as Python's statistics.quantiles(xs, n=4) computes them (its default
// "exclusive" method), so a reader can check them the same way.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	n := len(d)
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// medianU returns the median of xs (the mean of the two middle values for
// an even count).
func medianU(xs []uint64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return float64(s[n/2])
	}
	return (float64(s[n/2-1]) + float64(s[n/2])) / 2
}
