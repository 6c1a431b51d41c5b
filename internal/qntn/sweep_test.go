package qntn

import (
	"math"
	"testing"
	"time"
)

func TestCoverageSweepMatchesPerSizeCoverage(t *testing.T) {
	// The prefix-cached sweep must agree exactly with running the generic
	// Coverage per constellation size.
	p := DefaultParams()
	sizes := []int{6, 36, 108}
	const window = 90 * time.Minute
	points, err := CoverageSweep(p, sizes, window, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(sizes) {
		t.Fatalf("%d points", len(points))
	}
	for i, n := range sizes {
		sc, err := NewSpaceGround(n, p)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := sc.Coverage(window)
		if err != nil {
			t.Fatal(err)
		}
		got := points[i].Result
		if got.CoveredSteps != ref.CoveredSteps || got.Covered != ref.Covered {
			t.Fatalf("n=%d: sweep %d steps (%v) vs reference %d steps (%v)",
				n, got.CoveredSteps, got.Covered, ref.CoveredSteps, ref.Covered)
		}
		if len(got.Intervals) != len(ref.Intervals) {
			t.Fatalf("n=%d: interval count %d vs %d", n, len(got.Intervals), len(ref.Intervals))
		}
		for k := range got.Intervals {
			if got.Intervals[k] != ref.Intervals[k] {
				t.Fatalf("n=%d interval %d: %+v vs %+v", n, k, got.Intervals[k], ref.Intervals[k])
			}
		}
	}
}

func TestCoverageSweepMoreSatellitesNeverWorse(t *testing.T) {
	// Adding satellites can only add links, so coverage is monotone in the
	// catalog prefix length.
	points, err := CoverageSweep(DefaultParams(), PaperSweepSizes(), 2*time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(points); i++ {
		if points[i].Result.CoveredSteps < points[i-1].Result.CoveredSteps {
			t.Fatalf("coverage decreased from %d to %d satellites", points[i-1].Satellites, points[i].Satellites)
		}
	}
}

func TestCoverageSweepRejectsBadInput(t *testing.T) {
	if _, err := CoverageSweep(DefaultParams(), nil, time.Hour, 0); err == nil {
		t.Fatal("empty sizes accepted")
	}
	if _, err := CoverageSweep(DefaultParams(), []int{6}, 0, 0); err == nil {
		t.Fatal("zero duration accepted")
	}
	if _, err := CoverageSweep(DefaultParams(), []int{7}, time.Hour, 0); err == nil {
		t.Fatal("invalid size accepted")
	}
}

func TestPaperSweepSizes(t *testing.T) {
	sizes := PaperSweepSizes()
	if len(sizes) != 18 || sizes[0] != 6 || sizes[17] != 108 {
		t.Fatalf("sweep sizes %v", sizes)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i]-sizes[i-1] != 6 {
			t.Fatalf("sweep stride wrong at %d", i)
		}
	}
}

func TestServeSweepShape(t *testing.T) {
	cfg := ServeConfig{RequestsPerStep: 10, Steps: 6, Horizon: 24 * time.Hour, Seed: 5}
	points, err := ServeSweep(DefaultParams(), []int{6, 108}, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("%d points", len(points))
	}
	small, big := points[0].Result, points[1].Result
	if big.ServedPercent < small.ServedPercent {
		t.Fatalf("108 sats serve %.2f%% < 6 sats %.2f%%", big.ServedPercent, small.ServedPercent)
	}
	if big.ServedPercent <= 0 {
		t.Fatal("108 satellites should serve some requests")
	}
	if big.MeanFidelity <= 0 || big.MeanFidelity >= 1 {
		t.Fatalf("fidelity %g out of range", big.MeanFidelity)
	}
	if math.IsNaN(small.MeanFidelity) {
		t.Fatal("NaN fidelity for small constellation")
	}
}
