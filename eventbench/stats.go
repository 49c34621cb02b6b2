package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail percentile:
// fewer and the "tail" is one or two unlucky operations, not a property of
// the run.
const minBeyond = 10

// tailLadder is the set of percentiles a workload may fix as its tail,
// highest first.
var tailLadder = []float64{99.9, 99.5, 99, 98, 97, 95, 90, 85, 80, 75, 50}

// rank returns the 1-based nearest-rank position of the p-th percentile
// among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond returns how many of n samples sort strictly after the nearest-rank
// p-th percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// tailPercentile applies the tail rule: it returns the workload's fixed
// percentile when at least minBeyond of n samples lie beyond it, otherwise
// the highest ladder percentile that has that many. When even the median
// has fewer, no percentile is a tail by the rule, and the fixed one stands.
func tailPercentile(n int, fixed float64) float64 {
	if beyond(n, fixed) >= minBeyond {
		return fixed
	}
	for _, p := range tailLadder {
		if p < fixed && beyond(n, p) >= minBeyond {
			return p
		}
	}
	return fixed
}

// percentile returns the nearest-rank p-th percentile of xs (any order).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[rank(len(s), p)-1]
}

// median returns the middle value of xs, averaging the two middle values
// of an even-length slice.
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

// quartiles returns the first, second and third quartiles of xs by the
// exclusive method (Python's statistics.quantiles(xs, n=4) default), which
// is how run-to-run spreads of this benchmark are judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := [3]float64{}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
