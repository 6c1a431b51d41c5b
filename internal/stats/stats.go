// Package stats provides the small descriptive-statistics helpers used by
// the experiment harness.
package stats

import (
	"fmt"
	"math"
)

// Summary describes a sample of float64 values.
type Summary struct {
	N    int
	Mean float64
	Std  float64 // population standard deviation
	Min  float64
	Max  float64
}

// Summarize computes a Summary; an empty input yields the zero Summary.
// A NaN anywhere in the input yields a Summary with every statistic NaN:
// silently folding NaN would instead corrupt the result (NaN satisfies no
// ordering, so Min would stick at +Inf and Max at -Inf while Mean/Std
// poison quietly).
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	if hasNaN(xs) {
		nan := math.NaN()
		return Summary{N: len(xs), Mean: nan, Std: nan, Min: nan, Max: nan}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.Std = math.Sqrt(ss / float64(len(xs)))
	return s
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4f std=%.4f min=%.4f max=%.4f", s.N, s.Mean, s.Std, s.Min, s.Max)
}

// Mean returns the arithmetic mean (0 for empty input, NaN when any input
// is NaN).
func Mean(xs []float64) float64 { return Summarize(xs).Mean }

// hasNaN reports whether any value is NaN.
func hasNaN(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) {
			return true
		}
	}
	return false
}
