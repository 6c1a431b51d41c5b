package qntn

import (
	"fmt"
	"testing"
	"time"

	"qntn/internal/fault"
	"qntn/internal/quantum/protocol"
	"qntn/internal/stats"
)

// assertWernerRange fails unless the root-convention fidelity f maps to a
// Φ+ projection fidelity f² in [MinWernerFidelity, 1], the Werner domain
// the protocol layer composes in.
func assertWernerRange(t *testing.T, what string, f float64) {
	t.Helper()
	if w := f * f; !(w >= protocol.MinWernerFidelity && w <= 1) {
		t.Fatalf("%s: fidelity %v maps to Werner fidelity %v outside [%v, 1]", what, f, w, protocol.MinWernerFidelity)
	}
}

// TestServedFidelityInWernerRange runs the protocol through the engine —
// swaps, dephasing in memory and distillation, with faults off and on — and
// checks every served request of RunServe and RunTraffic: none may leave
// the Werner domain, however many hops and rounds composed it.
func TestServedFidelityInWernerRange(t *testing.T) {
	builds := []struct {
		name  string
		build func(Params) (*Scenario, error)
	}{
		{"space-ground-24", func(p Params) (*Scenario, error) { return NewSpaceGround(24, p) }},
		{"hybrid-12", func(p Params) (*Scenario, error) { return NewHybrid(12, p) }},
		{"air-ground", NewAirGround},
	}
	for _, b := range builds {
		for _, faults := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/faults=%v", b.name, faults), func(t *testing.T) {
				p := DefaultParams()
				p.Protocol = protocol.Config{MemoryT2: 20 * time.Millisecond, SwapSuccess: 0.85, PurifyPaths: 3, Seed: 5}
				if faults {
					p.Fault = fault.Config{
						SatMTBF: 2 * time.Hour, SatMTTR: 20 * time.Minute,
						HAPMTBF: 3 * time.Hour, HAPMTTR: 30 * time.Minute,
						GroundMTBF: 6 * time.Hour, GroundMTTR: 15 * time.Minute,
						WeatherP: 0.2, WeatherAttenuation: 0.5,
						Seed: 11,
					}
				}
				sc, err := b.build(p)
				if err != nil {
					t.Fatal(err)
				}

				served := 0
				res, err := sc.RunServe(ServeConfig{RequestsPerStep: 30, Steps: 24, Horizon: 12 * time.Hour, Seed: 2})
				if err != nil {
					t.Fatal(err)
				}
				for _, o := range res.Metrics.Outcomes {
					if o.Served {
						assertWernerRange(t, fmt.Sprintf("RunServe request %d", o.Request.ID), o.Fidelity)
						served++
					}
				}

				// RunTraffic reports only aggregates, so replay its
				// admission core on the same arrivals, tie the replay to
				// the result, and check each request the replay served.
				cfg := TrafficConfig{RatePerHourPerSite: 6, Horizon: 4 * time.Hour, Seed: 9}.withDefaults()
				tr, err := sc.RunTraffic(cfg)
				if err != nil {
					t.Fatal(err)
				}
				arrivals, err := sampleTraffic(sc, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ad, err := newAdmission(sc, admissionGrid(sc.Params, cfg.Horizon), queueUnserved)
				if err != nil {
					t.Fatal(err)
				}
				defer ad.close()
				if err := ad.run(arrivalList(arrivals), "traffic"); err != nil {
					t.Fatal(err)
				}
				if len(ad.fids) != tr.Served || stats.Mean(ad.fids) != tr.MeanFidelity {
					t.Fatalf("admission replay served %d at mean %v, RunTraffic %d at mean %v",
						len(ad.fids), stats.Mean(ad.fids), tr.Served, tr.MeanFidelity)
				}
				for i, f := range ad.fids {
					assertWernerRange(t, fmt.Sprintf("RunTraffic served request %d", i), f)
				}
				if served == 0 || tr.Served == 0 {
					t.Fatalf("degenerate case: RunServe served %d, RunTraffic %d", served, tr.Served)
				}
			})
		}
	}
}
