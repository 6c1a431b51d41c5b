package main

import (
	"math"
	"sort"
)

// summary describes one metric's samples within a run: the count, the
// median and the first and third quartiles.
type summary struct {
	N   int     `json:"n"`
	P25 float64 `json:"p25"`
	P50 float64 `json:"p50"`
	P75 float64 `json:"p75"`
}

// summarize returns the sample count, median and quartiles of xs. The
// quartiles use the same "exclusive" interpolation as Python's
// statistics.quantiles(xs, n=4), so a record's spread reads the same as the
// acceptance check computes it.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	q := quartiles(xs)
	return summary{N: len(xs), P25: q[0], P50: median(xs), P75: q[2]}
}

// quartiles implements Python's statistics.quantiles(xs, n=4) with the
// default exclusive method, including its clamping and extrapolation for
// tiny samples. A single sample is its own quartiles.
func quartiles(xs []float64) [3]float64 {
	s := sorted(xs)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var out [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out
}

// median returns the middle value of xs (mean of the two middle values for
// an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks, or NaN for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
