package experiments

import (
	"context"
	"time"

	"qntn/internal/atmosphere"
	"qntn/internal/geo"
	"qntn/internal/qntn"
	"qntn/internal/routing"
	"qntn/internal/runner"
	"qntn/internal/stats"
)

// RoutingMetricResult compares routing cost functions on identical
// topologies and workloads.
type RoutingMetricResult struct {
	Metric        string
	ServedPercent float64
	MeanFidelity  float64
	MeanPathEta   float64
	MeanHops      float64
}

// AblationRoutingMetric contrasts the paper's 1/(η+ε) additive metric with
// the product-optimal −log η metric and plain hop count. It runs on the
// hybrid (HAP + constellation) topology: with a single relay layer there is
// almost never more than one bridging relay, so every metric picks the same
// path; the hybrid offers genuine route diversity (HAP vs best satellite)
// and exposes the metrics' different choices. The same request workload is
// replayed for every metric.
//
// It fans the three metrics out over the worker pool. The scenario is shared
// (its link evaluation is pure) and each metric owns its workload generator
// and output slot, so the comparison is identical for any worker count.
// workers <= 0 selects GOMAXPROCS.
func AblationRoutingMetric(p qntn.Params, nSats int, cfg qntn.ServeConfig, workers int) ([]RoutingMetricResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sc, err := qntn.NewHybrid(nSats, p)
	if err != nil {
		return nil, err
	}
	metrics := []struct {
		name string
		cost routing.CostFunc
	}{
		{"1/(eta+eps) (paper)", routing.InverseEtaCost(p.RoutingEpsilon)},
		{"-log(eta) (product-optimal)", routing.NegLogEtaCost(p.RoutingEpsilon)},
		{"hop count", routing.HopCountCost()},
	}
	times := cfg.SampleTimes(p)

	out := make([]RoutingMetricResult, len(metrics))
	err = runner.Map(context.Background(), len(metrics), workers, func(_ context.Context, mi int) error {
		m := metrics[mi]
		wl, err := qntn.NewWorkload(sc, cfg.Seed)
		if err != nil {
			return err
		}
		var (
			trees             routing.SourceTrees
			path              []string
			fids, etas, hops  []float64
			attempted, served int
		)
		for _, at := range times {
			g, err := sc.Graph(at)
			if err != nil {
				return err
			}
			// One shortest-path tree per distinct source in this step's
			// batch, under the metric's own cost.
			trees.Load(g, m.cost)
			for _, req := range wl.Batch(cfg.RequestsPerStep) {
				attempted++
				var ok bool
				if path, ok, err = trees.AppendPath(path[:0], req.Src, req.Dst); err != nil {
					return err
				}
				if !ok {
					continue
				}
				hopEtas, err := g.EdgeEtas(path)
				if err != nil {
					return err
				}
				eta := 1.0
				for _, e := range hopEtas {
					eta *= e
				}
				served++
				fids = append(fids, qntn.PathFidelity(hopEtas, p.FidelityModel))
				etas = append(etas, eta)
				hops = append(hops, float64(len(hopEtas)))
			}
		}
		r := RoutingMetricResult{Metric: m.name}
		if attempted > 0 {
			r.ServedPercent = 100 * float64(served) / float64(attempted)
		}
		r.MeanFidelity = stats.Mean(fids)
		r.MeanPathEta = stats.Mean(etas)
		r.MeanHops = stats.Mean(hops)
		out[mi] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ConventionResult reports the two fidelity conventions side by side for
// one architecture.
type ConventionResult struct {
	Architecture string
	MeanRoot     float64
	MeanSquared  float64
}

// AblationFidelityConvention re-scores both architectures' served requests
// under the root and squared Uhlmann conventions — quantifying the
// discrepancy documented in DESIGN.md.
//
// It fans the two architectures out over the worker pool; each task owns its
// scenario and output slot. workers <= 0 selects GOMAXPROCS.
func AblationFidelityConvention(p qntn.Params, nSats int, cfg qntn.ServeConfig, workers int) ([]ConventionResult, error) {
	space, err := qntn.NewSpaceGround(nSats, p)
	if err != nil {
		return nil, err
	}
	air, err := qntn.NewAirGround(p)
	if err != nil {
		return nil, err
	}
	scenarios := []*qntn.Scenario{space, air}
	names := []string{qntn.SpaceGround.String(), qntn.AirGround.String()}

	out := make([]ConventionResult, len(scenarios))
	err = runner.Map(context.Background(), len(scenarios), workers, func(_ context.Context, i int) error {
		res, err := scenarios[i].RunServe(cfg)
		if err != nil {
			return err
		}
		var roots, squares []float64
		for _, o := range res.Metrics.Outcomes {
			if o.Served {
				roots = append(roots, o.Fidelity)
				squares = append(squares, o.Fidelity*o.Fidelity)
			}
		}
		out[i] = ConventionResult{
			Architecture: names[i],
			MeanRoot:     stats.Mean(roots),
			MeanSquared:  stats.Mean(squares),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// TurbulenceResult reports performance under a scaled Hufnagel-Valley
// turbulence profile.
type TurbulenceResult struct {
	Scale              float64
	SpaceServedPercent float64
	SpaceMeanFidelity  float64
	AirServedPercent   float64
	AirMeanFidelity    float64
}

// AblationTurbulence sweeps turbulence strength (0 = the paper's ideal
// assumption; 1 = nominal HV5/7; above 1 = degraded weather), addressing the
// paper's future-work question of how weather affects each architecture.
//
// It fans the turbulence scales out over the worker pool; each scale builds
// its own pair of scenarios and owns its output slot. workers <= 0 selects
// GOMAXPROCS.
func AblationTurbulence(p qntn.Params, nSats int, cfg qntn.ServeConfig, scales []float64, workers int) ([]TurbulenceResult, error) {
	out := make([]TurbulenceResult, len(scales))
	err := runner.Map(context.Background(), len(scales), workers, func(_ context.Context, i int) error {
		s := scales[i]
		ps := p
		if s > 0 {
			hv := atmosphere.HV57().Scaled(s)
			ps.Turbulence = &hv
		} else {
			ps.Turbulence = nil
		}
		space, err := qntn.NewSpaceGround(nSats, ps)
		if err != nil {
			return err
		}
		spaceRes, err := space.RunServe(cfg)
		if err != nil {
			return err
		}
		air, err := qntn.NewAirGround(ps)
		if err != nil {
			return err
		}
		airRes, err := air.RunServe(cfg)
		if err != nil {
			return err
		}
		out[i] = TurbulenceResult{
			Scale:              s,
			SpaceServedPercent: spaceRes.ServedPercent,
			SpaceMeanFidelity:  spaceRes.MeanFidelity,
			AirServedPercent:   airRes.ServedPercent,
			AirMeanFidelity:    airRes.MeanFidelity,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MaskResult reports coverage under one elevation mask.
type MaskResult struct {
	MaskDeg         float64
	CoveragePercent float64
}

// AblationElevationMask sweeps the ground-terminal elevation mask,
// quantifying how strongly the paper's π/9 choice drives the coverage
// result.
//
// It fans the masks out over the worker pool. The inner coverage sweep runs
// single-worker: the outer fan-out already saturates the pool, and nesting
// pools would oversubscribe the CPUs. workers <= 0 selects GOMAXPROCS.
func AblationElevationMask(p qntn.Params, nSats int, duration time.Duration, masksDeg []float64, workers int) ([]MaskResult, error) {
	out := make([]MaskResult, len(masksDeg))
	err := runner.Map(context.Background(), len(masksDeg), workers, func(_ context.Context, i int) error {
		pm := p
		pm.MinElevationRad = geo.Rad(masksDeg[i])
		points, err := qntn.CoverageSweep(pm, []int{nSats}, duration, 1)
		if err != nil {
			return err
		}
		out[i] = MaskResult{MaskDeg: masksDeg[i], CoveragePercent: points[0].Result.Percent()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PlacementResult reports one (architecture, source placement) cell.
type PlacementResult struct {
	Architecture string
	Model        qntn.FidelityModel
	MeanFidelity float64
}

// AblationSourcePlacement contrasts the platform-source (best-split,
// Micius-style) model with keeping the entanglement source at the requesting
// endpoint.
//
// It fans the model × architecture grid out over the worker pool; every cell
// builds its own scenario and owns its output slot, preserving the
// sequential row order (per model: space, then air). workers <= 0 selects
// GOMAXPROCS.
func AblationSourcePlacement(p qntn.Params, nSats int, cfg qntn.ServeConfig, workers int) ([]PlacementResult, error) {
	models := []qntn.FidelityModel{qntn.SourceAtBestSplit, qntn.SourceAtEndpoint}
	out := make([]PlacementResult, 2*len(models))
	err := runner.Grid(context.Background(), len(models), 2, workers, func(_ context.Context, mi, arch int) error {
		pm := p
		pm.FidelityModel = models[mi]
		var (
			sc   *qntn.Scenario
			name string
			err  error
		)
		if arch == 0 {
			sc, err = qntn.NewSpaceGround(nSats, pm)
			name = qntn.SpaceGround.String()
		} else {
			sc, err = qntn.NewAirGround(pm)
			name = qntn.AirGround.String()
		}
		if err != nil {
			return err
		}
		res, err := sc.RunServe(cfg)
		if err != nil {
			return err
		}
		out[mi*2+arch] = PlacementResult{name, models[mi], res.MeanFidelity}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// OrbitDesignResult reports coverage for one constellation design point.
type OrbitDesignResult struct {
	AltitudeKM      float64
	InclinationDeg  float64
	CoveragePercent float64
}

// AblationOrbitDesign sweeps the constellation's altitude and inclination
// (keeping the Table II slot pattern and satellite count) to show how the
// paper's 500 km / 53° choice trades footprint size against link budget:
// higher orbits see more of Tennessee but their longer slant ranges push
// links below the transmissivity threshold.
//
// It fans the altitude × inclination grid out over the worker pool; each
// design point owns its output slot and runs its inner coverage sweep
// single-worker (the grid saturates the pool). workers <= 0 selects
// GOMAXPROCS.
func AblationOrbitDesign(p qntn.Params, nSats int, duration time.Duration, altitudesKM, inclinationsDeg []float64, workers int) ([]OrbitDesignResult, error) {
	out := make([]OrbitDesignResult, len(altitudesKM)*len(inclinationsDeg))
	err := runner.Grid(context.Background(), len(altitudesKM), len(inclinationsDeg), workers, func(_ context.Context, ai, ii int) error {
		pp := p
		pp.SatelliteAltitudeM = altitudesKM[ai] * 1000
		pp.InclinationDeg = inclinationsDeg[ii]
		points, err := qntn.CoverageSweep(pp, []int{nSats}, duration, 1)
		if err != nil {
			return err
		}
		out[ai*len(inclinationsDeg)+ii] = OrbitDesignResult{
			AltitudeKM:      altitudesKM[ai],
			InclinationDeg:  inclinationsDeg[ii],
			CoveragePercent: points[0].Result.Percent(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
