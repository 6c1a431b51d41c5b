package experiments

import (
	"testing"
	"time"

	"qntn/internal/qntn"
)

func TestExtensionStatewideStudy(t *testing.T) {
	cfg := qntn.ServeConfig{RequestsPerStep: 20, Steps: 5, Horizon: 24 * time.Hour, Seed: 9}
	rows, err := ExtensionStatewideStudy(qntn.DefaultParams(), cfg, 90*time.Minute, []int{1, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	oneHAP, threeHAP, space := rows[0], rows[1], rows[2]

	// More platforms reach more pairs and serve more requests.
	if threeHAP.ConnectedPairsPercent <= oneHAP.ConnectedPairsPercent {
		t.Fatal("three HAPs should reach more pairs than one")
	}
	if threeHAP.ServedPercent < oneHAP.ServedPercent {
		t.Fatal("three HAPs should serve at least as much as one")
	}
	// No HAP fleet reaches Memphis: reachable pairs capped at 10/15.
	if threeHAP.ConnectedPairsPercent > 100*10.0/15.0+1e-9 {
		t.Fatalf("HAP fleet reached %.2f%% of pairs — Memphis should be unreachable", threeHAP.ConnectedPairsPercent)
	}
	// All-pairs coverage is therefore zero for every HAP fleet.
	if oneHAP.CoveragePercent != 0 || threeHAP.CoveragePercent != 0 {
		t.Fatal("HAP fleets cannot achieve all-pairs statewide coverage")
	}
	// The constellation joins every pair at least once.
	if space.ConnectedPairsPercent != 100 {
		t.Fatalf("space reachable pairs %.2f%%", space.ConnectedPairsPercent)
	}
	if space.CoveragePercent <= 0 {
		t.Fatal("space statewide coverage should be positive")
	}
}

func TestStatewidePlacement(t *testing.T) {
	positions, connected, total, err := StatewidePlacement(qntn.DefaultParams(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if total != 15 || connected != 10 {
		t.Fatalf("connectivity %d/%d", connected, total)
	}
	if len(positions) == 0 || len(positions) > 5 {
		t.Fatalf("%d positions", len(positions))
	}
}

func TestExtensionMultipathStudyRejectsEmptyWorkload(t *testing.T) {
	for _, cfg := range []qntn.ServeConfig{
		{RequestsPerStep: 10, Steps: 0},
		{RequestsPerStep: 10, Steps: -1},
		{RequestsPerStep: 0, Steps: 5},
	} {
		if _, err := ExtensionMultipathStudy(qntn.DefaultParams(), 6, cfg, 2, 1); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
}

func TestExtensionMultipathStudy(t *testing.T) {
	cfg := qntn.ServeConfig{RequestsPerStep: 10, Steps: 5, Horizon: 24 * time.Hour, Seed: 4}
	rows, err := ExtensionMultipathStudy(qntn.DefaultParams(), 36, cfg, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// Success probability is monotone in the path budget, and bounded.
	prev := 0.0
	for _, r := range rows {
		if r.MeanSuccessProbability < prev-1e-12 {
			t.Fatalf("success probability decreased: %+v", rows)
		}
		prev = r.MeanSuccessProbability
		if r.MeanSuccessProbability <= 0 || r.MeanSuccessProbability > 1 {
			t.Fatalf("success probability %g out of range", r.MeanSuccessProbability)
		}
		if r.MeanPathsFound < 1 || r.MeanPathsFound > float64(r.Paths) {
			t.Fatalf("paths found %g for budget %d", r.MeanPathsFound, r.Paths)
		}
	}
	// Redundancy must actually help on the hybrid (the HAP plus a
	// satellite give ≥2 disjoint routes much of the time).
	if rows[2].MeanSuccessProbability <= rows[0].MeanSuccessProbability {
		t.Fatal("three disjoint paths no better than one")
	}
}

func TestExtensionThroughputStudy(t *testing.T) {
	cfg := qntn.ServeConfig{RequestsPerStep: 10, Steps: 6, Horizon: 24 * time.Hour, Seed: 2}
	rows, err := ExtensionThroughputStudy(qntn.DefaultParams(), 108, cfg, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	space, air := rows[0], rows[1]
	// The HAP's higher path transmissivity gives it a higher per-request
	// rate, and full serving makes the effective rate gap even wider.
	if air.MeanServedPairRateHz <= space.MeanServedPairRateHz {
		t.Fatalf("air rate %g not above space %g", air.MeanServedPairRateHz, space.MeanServedPairRateHz)
	}
	if air.MeanEffectiveRateHz <= space.MeanEffectiveRateHz {
		t.Fatal("air effective rate should dominate")
	}
	for _, r := range rows {
		if r.WorstServedPairRateHz > r.MeanServedPairRateHz {
			t.Fatalf("%s: worst above mean", r.Architecture)
		}
		if r.MeanEffectiveRateHz > r.MeanServedPairRateHz+1e-9 {
			t.Fatalf("%s: effective above served mean", r.Architecture)
		}
	}
}
