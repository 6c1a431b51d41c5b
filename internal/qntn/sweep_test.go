package qntn

import (
	"math"
	"reflect"
	"testing"
	"time"

	"qntn/internal/fault"
	"qntn/internal/telemetry"
)

func TestCoverageSweepMatchesPerSizeCoverage(t *testing.T) {
	// The prefix sweep must agree exactly with running the generic
	// Coverage per constellation size, and an instrumented sweep must take
	// one shared snapshot per instant, not one per size.
	cases := []struct {
		name   string
		fault  fault.Config
		sizes  []int
		window time.Duration
	}{
		{"fault-free", fault.Config{}, []int{6, 36, 108}, 90 * time.Minute},
		// A down ground host splits its LAN, which leaves the region
		// uncovered even while the LAN's other hosts reach a relay.
		{"ground-downtime", fault.Config{GroundMTBF: 24 * time.Hour, GroundMTTR: 30 * time.Minute, Seed: 1}, []int{24, 108}, 3 * time.Hour},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams()
			p.Fault = tc.fault
			points, err := CoverageSweep(p, tc.sizes, tc.window, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(points) != len(tc.sizes) {
				t.Fatalf("%d points", len(points))
			}
			for i, n := range tc.sizes {
				sc, err := NewSpaceGround(n, p)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := sc.Coverage(tc.window)
				if err != nil {
					t.Fatal(err)
				}
				if got := points[i]; got.Satellites != n || !reflect.DeepEqual(got.Result, *ref) {
					t.Fatalf("n=%d: sweep %+v\nreference %+v", n, got, *ref)
				}
			}

			col := telemetry.NewCollector()
			pi := p
			pi.Telemetry = col
			instrumented, err := CoverageSweep(pi, tc.sizes, tc.window, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(instrumented, points) {
				t.Fatal("instrumented sweep diverged")
			}
			instants := coverageGrid(p.TopologyStep(), tc.window).steps
			if got := col.Registry.Counter("snapshot_steps_total").Value(); got != uint64(instants) {
				t.Fatalf("instrumented sweep took %d snapshots over %d instants", got, instants)
			}
		})
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
	if _, err := CoverageSweep(DefaultParams(), []int{-6, 6}, time.Hour, 0); err == nil {
		t.Fatal("negative size accepted")
	}
	// A size the rule rejects alone stays rejected beside a larger valid
	// one, which the sweep propagates and answers the rest as prefixes of.
	if _, err := CoverageSweep(DefaultParams(), []int{7, 108}, time.Hour, 0); err == nil {
		t.Fatal("size 7 accepted beside 108")
	}
	if _, err := ServeSweep(DefaultParams(), []int{7, 108}, ServeConfig{}, 0); err == nil {
		t.Fatal("serve sweep accepted size 7 beside 108")
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
