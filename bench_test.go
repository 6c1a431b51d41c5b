// Package qntnbench is the paper-reproduction benchmark harness: one
// testing.B benchmark per table and figure of the evaluation section, plus
// one per ablation listed in DESIGN.md. Each benchmark prints the headline
// numbers it reproduces via b.ReportMetric, so `go test -bench=.` yields
// the same rows/series the paper reports alongside the timing.
//
// The full-fidelity workloads (whole day at 30 s steps, 100×100 request
// grid) run in seconds-to-tens-of-seconds per iteration; benchmarks report
// their paper metric on every run.
package qntnbench

import (
	"testing"
	"time"

	"qntn/internal/experiments"
	"qntn/internal/orbit"
	"qntn/internal/qkd"
	"qntn/internal/qntn"
)

// paperServeConfig is the paper's §IV-B workload: 100 random inter-LAN
// requests repeated over 100 time steps of satellite movement.
func paperServeConfig() qntn.ServeConfig {
	return qntn.ServeConfig{RequestsPerStep: 100, Steps: 100, Horizon: orbit.Day, Seed: 1}
}

// BenchmarkFig5FidelitySweep regenerates Fig. 5: transmissivity 0..1 in
// steps of 0.01 against entanglement fidelity, computed by full density
// matrix evolution (101 amplitude-damping channel applications + Uhlmann
// fidelities).
func BenchmarkFig5FidelitySweep(b *testing.B) {
	var threshold float64
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig5(0.01)
		if err != nil {
			b.Fatal(err)
		}
		threshold, err = experiments.Fig5Threshold(points, 0.9)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(threshold, "eta@F0.9")
}

// BenchmarkFig6Coverage regenerates Fig. 6: full-day coverage percentage
// for constellation sizes 6..108 (prefixes of Table II), one sweep per
// iteration.
func BenchmarkFig6Coverage(b *testing.B) {
	p := qntn.DefaultParams()
	var at108 float64
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig6(p, orbit.Day, 0)
		if err != nil {
			b.Fatal(err)
		}
		at108 = points[len(points)-1].Result.Percent()
	}
	b.ReportMetric(at108, "coverage%@108")
}

// BenchmarkFig7ServedRequests regenerates Fig. 7: percentage of served
// entanglement distribution requests per constellation size, with the
// paper's 100×100 workload.
func BenchmarkFig7ServedRequests(b *testing.B) {
	p := qntn.DefaultParams()
	var served float64
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig7And8(p, paperServeConfig(), 0)
		if err != nil {
			b.Fatal(err)
		}
		served = points[len(points)-1].Result.ServedPercent
	}
	b.ReportMetric(served, "served%@108")
}

// BenchmarkFig8Fidelity regenerates Fig. 8: average entanglement fidelity
// of resolved requests per constellation size.
func BenchmarkFig8Fidelity(b *testing.B) {
	p := qntn.DefaultParams()
	var fid float64
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig7And8(p, paperServeConfig(), 0)
		if err != nil {
			b.Fatal(err)
		}
		fid = points[len(points)-1].Result.MeanFidelity
	}
	b.ReportMetric(fid, "fidelity@108")
}

// BenchmarkTable3Comparison regenerates Table III: space-ground (108
// satellites) vs air-ground over a full day.
func BenchmarkTable3Comparison(b *testing.B) {
	p := qntn.DefaultParams()
	var rows []experiments.Table3Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table3(p, paperServeConfig(), orbit.Day, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].CoveragePercent, "space-coverage%")
	b.ReportMetric(rows[0].MeanFidelity, "space-fidelity")
	b.ReportMetric(rows[1].ServedPercent, "air-served%")
	b.ReportMetric(rows[1].MeanFidelity, "air-fidelity")
}

// --- Ablation benchmarks (DESIGN.md) ---

// ablationServeConfig trims the workload so each ablation cell stays
// seconds-scale; the CLI (`qntnsim ablations`) runs the full grid.
func ablationServeConfig() qntn.ServeConfig {
	return qntn.ServeConfig{RequestsPerStep: 50, Steps: 25, Horizon: orbit.Day, Seed: 1}
}

// BenchmarkAblationRoutingMetric compares the paper's 1/(η+ε) metric with
// the product-optimal −log η metric and hop count.
func BenchmarkAblationRoutingMetric(b *testing.B) {
	p := qntn.DefaultParams()
	var rows []experiments.RoutingMetricResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AblationRoutingMetric(p, orbit.MaxPaperSatellites, ablationServeConfig(), 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch {
		case r.Metric == "hop count":
			b.ReportMetric(r.MeanPathEta, "eta-hopcount")
		case len(r.Metric) > 0 && r.Metric[0] == '1':
			b.ReportMetric(r.MeanPathEta, "eta-paper")
		default:
			b.ReportMetric(r.MeanPathEta, "eta-optimal")
		}
	}
}

// BenchmarkAblationFidelityConvention re-scores both architectures under
// the root and squared fidelity conventions.
func BenchmarkAblationFidelityConvention(b *testing.B) {
	p := qntn.DefaultParams()
	var rows []experiments.ConventionResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AblationFidelityConvention(p, orbit.MaxPaperSatellites, ablationServeConfig(), 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].MeanRoot, "space-root")
	b.ReportMetric(rows[0].MeanSquared, "space-squared")
}

// BenchmarkAblationTurbulence sweeps turbulence strength over both
// architectures (the paper's future-work weather question).
func BenchmarkAblationTurbulence(b *testing.B) {
	p := qntn.DefaultParams()
	cfg := qntn.ServeConfig{RequestsPerStep: 25, Steps: 10, Horizon: orbit.Day, Seed: 1}
	var rows []experiments.TurbulenceResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AblationTurbulence(p, orbit.MaxPaperSatellites, cfg, []float64{0, 0.1, 0.5}, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].AirMeanFidelity, "air-fid-clear")
	b.ReportMetric(rows[len(rows)-1].AirMeanFidelity, "air-fid-halfHV")
	b.ReportMetric(rows[len(rows)-1].SpaceServedPercent, "space-served%-halfHV")
}

// BenchmarkAblationElevationMask sweeps the ground-terminal elevation mask
// at 108 satellites over a 6-hour window.
func BenchmarkAblationElevationMask(b *testing.B) {
	p := qntn.DefaultParams()
	var rows []experiments.MaskResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AblationElevationMask(p, orbit.MaxPaperSatellites, 6*time.Hour, []float64{10, 20, 30}, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.MaskDeg {
		case 10:
			b.ReportMetric(r.CoveragePercent, "coverage%@10°")
		case 20:
			b.ReportMetric(r.CoveragePercent, "coverage%@20°")
		case 30:
			b.ReportMetric(r.CoveragePercent, "coverage%@30°")
		}
	}
}

// BenchmarkAblationSourcePlacement contrasts platform-source (best-split)
// with endpoint-source fidelity accounting.
func BenchmarkAblationSourcePlacement(b *testing.B) {
	p := qntn.DefaultParams()
	var rows []experiments.PlacementResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AblationSourcePlacement(p, orbit.MaxPaperSatellites, ablationServeConfig(), 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Architecture == qntn.SpaceGround.String() {
			b.ReportMetric(r.MeanFidelity, "space-"+r.Model.String())
		}
	}
}

// BenchmarkExtensionQKDStudy evaluates the QKD key-rate comparison across
// all geometries.
func BenchmarkExtensionQKDStudy(b *testing.B) {
	p := qntn.DefaultParams()
	var rows []experiments.QKDRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ExtensionQKDStudy(p, qkd.DefaultDetector())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].BBM92KeyRateHz/1e6, "air-bbm92-Mbps")
	b.ReportMetric(rows[len(rows)-1].BBM92KeyRateHz/1e6, "space-zenith-Mbps")
}

// BenchmarkExtensionLatencyStudy runs the DES time-aware serving study.
func BenchmarkExtensionLatencyStudy(b *testing.B) {
	p := qntn.DefaultParams()
	cfg := qntn.ServeConfig{RequestsPerStep: 25, Steps: 10, Horizon: orbit.Day, Seed: 1}
	var rows []experiments.LatencyRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ExtensionLatencyStudy(p, orbit.MaxPaperSatellites, cfg, []time.Duration{0, 10 * time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.MemoryT2 == 0 && r.Architecture == "air-ground" {
			b.ReportMetric(r.MeanLatency.Seconds()*1e3, "air-latency-ms")
		}
		if r.MemoryT2 == 0 && r.Architecture == "space-ground" {
			b.ReportMetric(r.MeanLatency.Seconds()*1e3, "space-latency-ms")
		}
	}
}

// BenchmarkExtensionPurification pumps pairs at the three reference path
// transmissivities.
func BenchmarkExtensionPurification(b *testing.B) {
	var rows []experiments.PurificationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ExtensionPurificationStudy([]float64{0.49, 0.72, 0.92}, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[1].Fidelity, "F-after-1-round@0.49")
}

// BenchmarkExtensionOutageStudy sweeps HAP reliability.
func BenchmarkExtensionOutageStudy(b *testing.B) {
	p := qntn.DefaultParams()
	cfg := qntn.ServeConfig{RequestsPerStep: 20, Steps: 10, Horizon: orbit.Day, Seed: 1}
	var rows []experiments.OutageRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ExtensionOutageStudy(p, cfg, 6*time.Hour, []float64{0, 0.2})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[1].CoveragePercent, "coverage%@20%outage")
}

// BenchmarkExtensionMultipathStudy measures disjoint-path redundancy on the
// hybrid topology.
func BenchmarkExtensionMultipathStudy(b *testing.B) {
	p := qntn.DefaultParams()
	cfg := qntn.ServeConfig{RequestsPerStep: 20, Steps: 10, Horizon: orbit.Day, Seed: 1}
	var rows []experiments.MultipathRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ExtensionMultipathStudy(p, orbit.MaxPaperSatellites, cfg, 3, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].MeanSuccessProbability, "P-success-1path")
	b.ReportMetric(rows[2].MeanSuccessProbability, "P-success-3paths")
}

// BenchmarkExtensionStatewide runs the six-LAN scaling study.
func BenchmarkExtensionStatewide(b *testing.B) {
	p := qntn.DefaultParams()
	cfg := qntn.ServeConfig{RequestsPerStep: 20, Steps: 10, Horizon: orbit.Day, Seed: 1}
	var rows []experiments.StatewideRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ExtensionStatewideStudy(p, cfg, 2*time.Hour, []int{3}, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].ConnectedPairsPercent, "hap-reachable-pairs%")
	b.ReportMetric(rows[len(rows)-1].ConnectedPairsPercent, "space-reachable-pairs%")
}

// BenchmarkExtensionNightStudy evaluates night-only operation.
func BenchmarkExtensionNightStudy(b *testing.B) {
	p := qntn.DefaultParams()
	cfg := qntn.ServeConfig{RequestsPerStep: 20, Steps: 10, Horizon: orbit.Day, Seed: 1}
	var rows []experiments.NightRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ExtensionNightStudy(p, orbit.MaxPaperSatellites, cfg, 3*time.Hour)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.NightOnly && r.Architecture == "air-ground" {
			b.ReportMetric(r.ServedPercent, "air-night-served%")
		}
	}
}

// BenchmarkExtensionArrivalStudy drives Poisson arrivals through the DES.
func BenchmarkExtensionArrivalStudy(b *testing.B) {
	p := qntn.DefaultParams()
	var rows []experiments.ArrivalRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ExtensionArrivalStudy(p, orbit.MaxPaperSatellites, 2*time.Hour, []float64{120}, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].ServedPercent, "space-queued-served%")
	b.ReportMetric(rows[0].MeanWait.Seconds(), "space-mean-wait-s")
}
