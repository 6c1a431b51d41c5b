package stats

import (
	"math"
	"testing"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.Std != 0 {
		t.Fatalf("empty summary %+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 || math.Abs(s.Std-2) > 1e-12 {
		t.Fatalf("summary %+v", s)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max %g/%g", s.Min, s.Max)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{3.5})
	if s.N != 1 || s.Mean != 3.5 || s.Std != 0 || s.Min != 3.5 || s.Max != 3.5 {
		t.Fatalf("summary %+v", s)
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean wrong")
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean should be 0")
	}
}

// TestSummarizeNaNPropagates is the regression test for silent NaN
// corruption: before Summarize checked, a NaN input left Min stuck at +Inf
// and Max at -Inf (NaN satisfies no ordering) while Mean/Std poisoned
// quietly. All statistics must now be explicitly NaN.
func TestSummarizeNaNPropagates(t *testing.T) {
	s := Summarize([]float64{1, math.NaN(), 3})
	if s.N != 3 {
		t.Fatalf("N = %d, want 3", s.N)
	}
	for name, v := range map[string]float64{"Mean": s.Mean, "Std": s.Std, "Min": s.Min, "Max": s.Max} {
		if !math.IsNaN(v) {
			t.Errorf("%s = %g, want NaN", name, v)
		}
	}
	if math.IsInf(s.Min, 1) || math.IsInf(s.Max, -1) {
		t.Error("Min/Max stuck at the infinity sentinels — the pre-fix corruption")
	}
	if !math.IsNaN(Mean([]float64{math.NaN()})) {
		t.Error("Mean must propagate NaN")
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{1, 2})
	if s.String() == "" {
		t.Fatal("empty string rendering")
	}
}
