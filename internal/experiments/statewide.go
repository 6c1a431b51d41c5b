package experiments

import (
	"context"
	"fmt"
	"time"

	"qntn/internal/geo"
	"qntn/internal/qntn"
	"qntn/internal/runner"
)

// StatewideRow reports one architecture option for the six-LAN extended
// region (paper LANs + Nashville, Memphis, Knoxville).
type StatewideRow struct {
	Architecture string
	Platforms    int
	// ConnectedPairsPercent is the fraction of LAN pairs the
	// architecture can ever join (static for HAP fleets; for satellites
	// the fraction of pairs joined at least once during the window).
	ConnectedPairsPercent float64
	// CoveragePercent is the all-pairs coverage over the window.
	CoveragePercent float64
	// ServedPercent over the serve workload.
	ServedPercent float64
}

// ExtensionStatewideStudy extends the paper's comparison to a statewide
// six-LAN region: greedily placed HAP fleets of increasing size versus the
// 108-satellite constellation. The headline finding: no HAP fleet reaches
// Memphis (no 30 km platform footprint spans the ≈290 km gap west of
// Nashville and there is no intermediate LAN to chain through), while the
// constellation serves all fifteen pairs whenever a satellite is up.
//
// It fans the architecture options — one task per HAP fleet size plus one
// for the constellation — out over the worker pool. Every option builds its
// own scenario and writes only its own row, so the table is identical for
// any worker count. workers <= 0 selects GOMAXPROCS.
func ExtensionStatewideStudy(p qntn.Params, cfg qntn.ServeConfig, window time.Duration, fleetSizes []int, workers int) ([]StatewideRow, error) {
	lans := qntn.ExtendedNetworks()
	totalPairs := len(lans) * (len(lans) - 1) / 2
	rows := make([]StatewideRow, len(fleetSizes)+1)

	err := runner.Map(context.Background(), len(rows), workers, func(_ context.Context, ti int) error {
		if ti < len(fleetSizes) {
			k := fleetSizes[ti]
			placement, err := qntn.PlaceHAPs(p, lans, k, 0.15)
			if err != nil {
				return err
			}
			positions := placement.Positions
			if len(positions) > k {
				positions = positions[:k]
			}
			sc, err := qntn.NewMultiHAP(p, lans, positions)
			if err != nil {
				return err
			}
			row, err := statewideRow(sc, cfg, window)
			if err != nil {
				return err
			}
			suffix := "HAPs"
			if len(positions) == 1 {
				suffix = "HAP"
			}
			row.Architecture = fmt.Sprintf("air-ground (%d %s)", len(positions), suffix)
			row.Platforms = len(positions)
			row.ConnectedPairsPercent = 100 * float64(placement.ConnectedPairs) / float64(totalPairs)
			rows[ti] = row
			return nil
		}

		space, err := qntn.NewExtendedSpaceGround(108, p)
		if err != nil {
			return err
		}
		row, err := statewideRow(space, cfg, window)
		if err != nil {
			return err
		}
		row.Architecture = "space-ground (108 sats)"
		row.Platforms = 108
		// Satellites join every pair whenever one is visible to both cities.
		detail, err := space.DetailedCoverage(window)
		if err != nil {
			return err
		}
		joined := 0
		for _, pc := range detail.Pairs {
			if pc.Result.CoveredSteps > 0 {
				joined++
			}
		}
		row.ConnectedPairsPercent = 100 * float64(joined) / float64(totalPairs)
		rows[ti] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func statewideRow(sc *qntn.Scenario, cfg qntn.ServeConfig, window time.Duration) (StatewideRow, error) {
	cov, err := sc.Coverage(window)
	if err != nil {
		return StatewideRow{}, err
	}
	serve, err := sc.RunServe(cfg)
	if err != nil {
		return StatewideRow{}, err
	}
	return StatewideRow{
		CoveragePercent: cov.Percent(),
		ServedPercent:   serve.ServedPercent,
	}, nil
}

// StatewidePlacement exposes the optimized fleet for rendering (positions
// with their coordinates).
func StatewidePlacement(p qntn.Params, maxHAPs int) ([]geo.LLA, int, int, error) {
	res, err := qntn.PlaceHAPs(p, qntn.ExtendedNetworks(), maxHAPs, 0.15)
	if err != nil {
		return nil, 0, 0, err
	}
	return res.Positions, res.ConnectedPairs, res.TotalPairs, nil
}
