// Package stat holds the benchmark's summary arithmetic: medians,
// Python-compatible quartiles, and the tail-percentile rule.
package stat

import (
	"fmt"
	"math"
	"sort"
)

// Sorted returns a sorted copy of xs.
func Sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := Sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default "exclusive"
// method), so spreads computed here match the ones the acceptance
// check computes. It needs at least two values.
func Quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, 0, fmt.Errorf("stat: quartiles need at least 2 values, got %d", len(xs))
	}
	s := Sorted(xs)
	ld := len(s)
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2], nil
}

// Spread is the interquartile distance of xs as a share of its median.
func Spread(xs []float64) (float64, error) {
	q1, _, q3, err := Quartiles(xs)
	if err != nil {
		return 0, err
	}
	med := Median(xs)
	if med == 0 {
		if q3 == q1 {
			return 0, nil
		}
		return math.Inf(1), nil
	}
	return math.Abs(q3-q1) / math.Abs(med), nil
}

// TailLadder lists the percentiles a tail may be reported at, highest
// first.
var TailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// MinBeyond is how many samples must lie beyond a reported tail
// percentile.
const MinBeyond = 10

// Percentile returns the nearest-rank p-th percentile of sorted
// values and how many values rank beyond it.
func Percentile(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// Tail returns the highest percentile on TailLadder with at least
// MinBeyond samples beyond it, and its value. With too few samples for
// any of them it returns the maximum and p = 100. Infinite values (a
// failed or unsent request) count as samples that miss every limit.
func Tail(xs []float64) (p, v float64) {
	if len(xs) == 0 {
		return 100, math.NaN()
	}
	s := Sorted(xs)
	for _, p := range TailLadder {
		if v, beyond := Percentile(s, p); beyond >= MinBeyond {
			return p, v
		}
	}
	return 100, s[len(s)-1]
}
