package qntn

import (
	"testing"
	"time"

	"qntn/internal/netsim"
	"qntn/internal/routing"
	"qntn/internal/telemetry"
)

func BenchmarkSnapshot108Satellites(b *testing.B) {
	sc, err := NewSpaceGround(108, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var m allocMeter
	m.start()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Graph(time.Duration(i) * 30 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
	allocs, bytes := m.stop()
	recordSweepBench(b, "Snapshot108", 1, allocs, bytes)
}

// BenchmarkSnapshotInto108Satellites measures the arena-reuse path: the
// same topology work as BenchmarkSnapshot108Satellites, but into one
// caller-owned graph — the steady state of RunServe and Coverage.
func BenchmarkSnapshotInto108Satellites(b *testing.B) {
	sc, err := NewSpaceGround(108, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	g := routing.NewGraph()
	b.ReportAllocs()
	b.ResetTimer()
	var m allocMeter
	m.start()
	for i := 0; i < b.N; i++ {
		if err := sc.GraphInto(g, time.Duration(i)*30*time.Second); err != nil {
			b.Fatal(err)
		}
	}
	allocs, bytes := m.stop()
	recordSweepBench(b, "SnapshotInto108", 1, allocs, bytes)
}

// BenchmarkSnapshotInto108TelemetrySatellites is the enabled half of the
// telemetry overhead pair: the same steady-state loop as
// BenchmarkSnapshotInto108Satellites (the nil-sink baseline), but with a
// metrics-only collector attached, so BENCH_sweep.json documents the cost
// of instrumentation — a handful of atomic adds per step — next to the
// uninstrumented numbers.
func BenchmarkSnapshotInto108TelemetrySatellites(b *testing.B) {
	p := DefaultParams()
	p.Telemetry = &telemetry.Collector{Registry: telemetry.NewRegistry()}
	sc, err := NewSpaceGround(108, p)
	if err != nil {
		b.Fatal(err)
	}
	g := routing.NewGraph()
	var st netsim.SnapshotStats
	b.ReportAllocs()
	b.ResetTimer()
	var m allocMeter
	m.start()
	for i := 0; i < b.N; i++ {
		if err := sc.Net.SnapshotIntoStats(g, time.Duration(i)*30*time.Second, &st); err != nil {
			b.Fatal(err)
		}
	}
	allocs, bytes := m.stop()
	recordSweepBench(b, "SnapshotInto108Telemetry", 1, allocs, bytes)
}

func BenchmarkRoutesAirGround(b *testing.B) {
	sc, err := NewAirGround(DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var m allocMeter
	m.start()
	for i := 0; i < b.N; i++ {
		if _, _, err := sc.Routes(0); err != nil {
			b.Fatal(err)
		}
	}
	allocs, bytes := m.stop()
	recordSweepBench(b, "RoutesAirGround", 1, allocs, bytes)
}

func BenchmarkRoutes108Satellites(b *testing.B) {
	sc, err := NewSpaceGround(108, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var m allocMeter
	m.start()
	for i := 0; i < b.N; i++ {
		if _, _, err := sc.Routes(time.Duration(i) * 30 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
	allocs, bytes := m.stop()
	recordSweepBench(b, "Routes108", 1, allocs, bytes)
}

// BenchmarkRoutesScratch108 converges Algorithm 1 on the SpaceGround-108
// snapshots at the 100 DefaultServeConfig sample instants with one reused
// scratch — the routing work of one RunServe day. The snapshots are built
// before the timer starts, so an operation is routing only. Real snapshots
// are mostly disconnected (about 88 components of 139 nodes on average),
// unlike the connected random graphs of the routing package benchmarks.
func BenchmarkRoutesScratch108(b *testing.B) {
	sc, err := NewSpaceGround(108, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	var graphs []*routing.Graph
	for _, at := range DefaultServeConfig().sampleTimes(sc.Params) {
		g, err := sc.Graph(at)
		if err != nil {
			b.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	// One warm-up pass sizes the scratch, as the first step of RunServe does.
	var scratch routing.BellmanFordScratch
	for _, g := range graphs {
		scratch.Run(g, sc.Params.RoutingEpsilon)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var m allocMeter
	m.start()
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			scratch.Run(g, sc.Params.RoutingEpsilon)
		}
	}
	allocs, bytes := m.stop()
	recordSweepBench(b, "RoutesScratch108", 1, allocs, bytes)
}

func BenchmarkCoverageHour108Satellites(b *testing.B) {
	sc, err := NewSpaceGround(108, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var m allocMeter
	m.start()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Coverage(time.Hour); err != nil {
			b.Fatal(err)
		}
	}
	allocs, bytes := m.stop()
	recordSweepBench(b, "CoverageHour108", 1, allocs, bytes)
}

func BenchmarkPathFidelityBestSplit(b *testing.B) {
	etas := []float64{0.93, 0.88, 0.95}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = PathFidelity(etas, SourceAtBestSplit)
	}
}

func BenchmarkPathFidelityExact(b *testing.B) {
	etas := []float64{0.93, 0.88, 0.95}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PathFidelityExact(etas, SourceAtBestSplit); err != nil {
			b.Fatal(err)
		}
	}
}
