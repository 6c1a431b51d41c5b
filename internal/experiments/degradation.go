package experiments

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"qntn/internal/fault"
	"qntn/internal/qntn"
)

// DegradationPoint reports one (architecture, constellation size, fault
// intensity) cell of the graceful-degradation study.
type DegradationPoint struct {
	Architecture string
	// Satellites is the constellation size (0 for the air-ground row — the
	// HAP architecture has no constellation to scale).
	Satellites int
	// Unavailability is the per-platform unavailable fraction u injected
	// via fault.AtIntensity (weather rides along at u/2).
	Unavailability  float64
	CoveragePercent float64
	// Intervals counts the connected coverage windows: faults fragment the
	// day, which is what a downstream application actually experiences.
	Intervals     int
	ServedPercent float64
	MeanFidelity  float64
}

// DegradationStudy quantifies graceful degradation under the fault model:
// for each fault intensity it re-runs the paper's coverage and serving
// experiments across the space-ground constellation sizes (through the
// parallel sweep engine, so one catalog propagation serves every size) and
// the air-ground architecture. The fault seed in p is kept, so the study is
// deterministic for fixed inputs and worker-count independent. workers <= 0
// selects GOMAXPROCS.
func DegradationStudy(p qntn.Params, cfg qntn.ServeConfig, window time.Duration, sizes []int, levels []float64, workers int) ([]DegradationPoint, error) {
	if len(sizes) == 0 || len(levels) == 0 {
		return nil, fmt.Errorf("experiments: degradation study requires sizes and fault levels")
	}
	// The schedule spans both the coverage window and the serve horizon,
	// so no sampled instant falls past its end.
	horizon := max(window, cfg.Horizon, fault.DefaultHorizon)
	var rows []DegradationPoint
	for _, u := range levels {
		pp := p
		pp.Fault = fault.AtIntensity(u, p.Fault.Seed)
		pp.Fault.Horizon = horizon
		cov, err := qntn.CoverageSweep(pp, sizes, window, workers)
		if err != nil {
			return nil, fmt.Errorf("experiments: degradation study (u=%g): %w", u, err)
		}
		srv, err := qntn.ServeSweep(pp, sizes, cfg, workers)
		if err != nil {
			return nil, fmt.Errorf("experiments: degradation study (u=%g): %w", u, err)
		}
		for i := range sizes {
			rows = append(rows, DegradationPoint{
				Architecture:    qntn.SpaceGround.String(),
				Satellites:      sizes[i],
				Unavailability:  u,
				CoveragePercent: cov[i].Result.Percent(),
				Intervals:       len(cov[i].Result.Intervals),
				ServedPercent:   srv[i].Result.ServedPercent,
				MeanFidelity:    srv[i].Result.MeanFidelity,
			})
		}
		sc, err := qntn.NewAirGround(pp)
		if err != nil {
			return nil, err
		}
		hapCov, err := sc.Coverage(window)
		if err != nil {
			return nil, fmt.Errorf("experiments: degradation study (air-ground, u=%g): %w", u, err)
		}
		hapSrv, err := sc.RunServe(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: degradation study (air-ground, u=%g): %w", u, err)
		}
		rows = append(rows, DegradationPoint{
			Architecture:    qntn.AirGround.String(),
			Unavailability:  u,
			CoveragePercent: hapCov.Percent(),
			Intervals:       len(hapCov.Intervals),
			ServedPercent:   hapSrv.ServedPercent,
			MeanFidelity:    hapSrv.MeanFidelity,
		})
	}
	return rows, nil
}

// DegradationCSV writes the degradation study.
func DegradationCSV(w io.Writer, rows []DegradationPoint) error {
	cells := make([][]string, len(rows))
	for i, r := range rows {
		cells[i] = []string{
			r.Architecture,
			strconv.Itoa(r.Satellites),
			strconv.FormatFloat(r.Unavailability, 'f', 4, 64),
			strconv.FormatFloat(r.CoveragePercent, 'f', 4, 64),
			strconv.Itoa(r.Intervals),
			strconv.FormatFloat(r.ServedPercent, 'f', 4, 64),
			strconv.FormatFloat(r.MeanFidelity, 'f', 6, 64),
		}
	}
	return WriteCSV(w, []string{
		"architecture", "satellites", "unavailability",
		"coverage_percent", "intervals", "served_percent", "mean_fidelity",
	}, cells)
}
