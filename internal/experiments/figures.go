package experiments

import (
	"context"
	"time"

	"qntn/internal/orbit"
	"qntn/internal/qntn"
	"qntn/internal/runner"
)

// Fig6 computes the paper's Fig. 6: coverage percentage of the space-ground
// network as a function of the number of satellites (6..108), over the given
// period (the paper uses a full day).
//
// workers bounds the pool (0 = GOMAXPROCS); the result is identical for
// any worker count.
func Fig6(p qntn.Params, duration time.Duration, workers int) ([]qntn.CoveragePoint, error) {
	return qntn.CoverageSweep(p, qntn.PaperSweepSizes(), duration, workers)
}

// Fig7And8 computes the paper's Fig. 7 (served entanglement distribution
// requests) and Fig. 8 (average entanglement fidelity of resolved requests)
// in one pass: both figures share the same workload of 100 random inter-LAN
// requests over 100 satellite-movement steps.
//
// workers bounds the pool (0 = GOMAXPROCS); the result is identical for
// any worker count.
func Fig7And8(p qntn.Params, cfg qntn.ServeConfig, workers int) ([]qntn.ServePoint, error) {
	return qntn.ServeSweep(p, qntn.PaperSweepSizes(), cfg, workers)
}

// Table3Row is one architecture row of the paper's Table III comparison.
type Table3Row struct {
	Architecture    string
	CoveragePercent float64
	ServedPercent   float64
	MeanFidelity    float64
}

// Table3 reproduces the paper's Table III: the space-ground architecture
// with 108 satellites versus the air-ground architecture, compared on
// full-day coverage, served requests, and average entanglement fidelity.
//
// The four cells — coverage and serve for each architecture — are
// independent, so they fan out over the pool; each writes only its own slot
// and both cells of an architecture share one immutable scenario, so the
// table is identical for any worker count. workers <= 0 selects GOMAXPROCS.
func Table3(p qntn.Params, cfg qntn.ServeConfig, coverageDuration time.Duration, workers int) ([]Table3Row, error) {
	if coverageDuration <= 0 {
		coverageDuration = orbit.Day
	}
	space, err := qntn.NewSpaceGround(orbit.MaxPaperSatellites, p)
	if err != nil {
		return nil, err
	}
	air, err := qntn.NewAirGround(p)
	if err != nil {
		return nil, err
	}

	rows := []Table3Row{
		{Architecture: qntn.SpaceGround.String()},
		{Architecture: qntn.AirGround.String()},
	}
	scenarios := []*qntn.Scenario{space, air}
	err = runner.Grid(context.Background(), len(scenarios), 2, workers, func(_ context.Context, row, cell int) error {
		sc := scenarios[row]
		if cell == 0 {
			cov, err := sc.Coverage(coverageDuration)
			if err != nil {
				return err
			}
			rows[row].CoveragePercent = cov.Percent()
			return nil
		}
		serve, err := sc.RunServe(cfg)
		if err != nil {
			return err
		}
		rows[row].ServedPercent = serve.ServedPercent
		rows[row].MeanFidelity = serve.MeanFidelity
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
