package qntn

import (
	"testing"
	"time"

	"qntn/internal/netsim"
	"qntn/internal/orbit"
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
	for i := 0; i < b.N; i++ {
		if _, err := sc.Graph(time.Duration(i) * 30 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
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
	for i := 0; i < b.N; i++ {
		if err := sc.GraphInto(g, time.Duration(i)*30*time.Second, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotInto108TelemetrySatellites is the enabled half of the
// telemetry overhead pair: the same steady-state loop as
// BenchmarkSnapshotInto108Satellites (the nil-sink baseline), but with a
// metrics-only collector attached, so the pair shows the cost of
// instrumentation — a handful of atomic adds per step — next to the
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
	for i := 0; i < b.N; i++ {
		if err := sc.GraphInto(g, time.Duration(i)*30*time.Second, &st); err != nil {
			b.Fatal(err)
		}
	}
}

// walker1kSpec is the walker1k-coverage backbone: two 504-satellite +grid
// shells of 12 planes (53° at 550 km, 70° at 600 km) with phasing factor 1,
// over the global ground set.
func walker1kSpec() WalkerSpec {
	shell := func(inclinationDeg, altitudeM float64) orbit.WalkerShell {
		return orbit.WalkerShell{TotalSats: 504, Planes: 12, Phasing: 1,
			InclinationDeg: inclinationDeg, AltitudeM: altitudeM}
	}
	return WalkerSpec{
		Shells:  []orbit.WalkerShell{shell(53, 550e3), shell(70, 600e3)},
		ISLGrid: true,
		Ground:  GlobalGroundNetworks(),
	}
}

// walker1kInstants is the number of topology steps in the 10-minute slice
// one walker1k-coverage pass covers.
const walker1kInstants = 20

// BenchmarkSnapshotIntoWalker1k measures one stepped topology step of the
// walker1k-coverage backbone (walker1kSpec): 1,059 nodes, about 2,900
// candidate pairs and 1,465 links per step. An operation is a snapshot
// into one reused graph plus the union-find bridged check, cycling over
// the 20 instants of a 10-minute slice that the warm-up visits once first,
// so every neighbour row already has its capacity and the steady state
// allocates nothing. Run it with -cpu 1 to see 0 allocs/op: with more Ps,
// the goroutine can migrate between the Close and the next checkout of the
// scenario's per-P evaluator pool, and the miss rebuilds an evaluator.
func BenchmarkSnapshotIntoWalker1k(b *testing.B) {
	sc, err := NewWalker(walker1kSpec(), DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	step := sc.Params.TopologyStep()
	g := routing.NewGraph()
	var uf unionFind
	run := func(k int) {
		if err := sc.GraphInto(g, time.Duration(k%walker1kInstants)*step, nil); err != nil {
			b.Fatal(err)
		}
		sc.bridgedInto(&uf, g, g.NumNodes())
	}
	for k := 0; k < walker1kInstants; k++ {
		run(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(i)
	}
}

// BenchmarkCandidatePairsWalker1k measures the candidates layer of the
// walker1k-coverage backbone on its own: an operation is one BeginStep
// (the per-step ephemeris refresh) plus the CandidatePairs build, cycling
// over the same 20 instants as BenchmarkSnapshotIntoWalker1k, and the
// candidates/step metric is the mean length of the list the physics loop
// would walk over one full cycle of those instants (the warm-up pass), so
// it does not depend on b.N.
func BenchmarkCandidatePairsWalker1k(b *testing.B) {
	sc, err := NewWalker(walker1kSpec(), DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	step := sc.Params.TopologyStep()
	run := func(k int) int {
		ev := sc.Net.BeginStep(time.Duration(k%walker1kInstants) * step)
		cand, ok := ev.(netsim.PairEnumerator).CandidatePairs()
		if !ok {
			b.Fatal("spatial index inactive on the walker1k backbone")
		}
		n := len(cand)
		ev.Close()
		return n
	}
	cycle := 0
	for k := 0; k < walker1kInstants; k++ {
		cycle += run(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(i)
	}
	b.ReportMetric(float64(cycle)/walker1kInstants, "candidates/step")
}

func BenchmarkRoutesAirGround(b *testing.B) {
	sc, err := NewAirGround(DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sc.Routes(0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRoutes108Satellites(b *testing.B) {
	sc, err := NewSpaceGround(108, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sc.Routes(time.Duration(i) * 30 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
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
	for _, at := range DefaultServeConfig().SampleTimes(sc.Params) {
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
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			scratch.Run(g, sc.Params.RoutingEpsilon)
		}
	}
}

// BenchmarkRoutesTrees108 is the serve loop's routing over the same 100
// SpaceGround-108 snapshots as BenchmarkRoutesScratch108: per snapshot, one
// SourceTrees load under 1/(η+ε) and a path for every request of that
// step's DefaultServeConfig batch, into a reused buffer. The snapshots and
// batches are built before the timer starts, so an operation is routing
// only, and the two benchmarks report the retired and the serving kernel
// side by side.
func BenchmarkRoutesTrees108(b *testing.B) {
	sc, err := NewSpaceGround(108, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultServeConfig()
	wl, err := NewWorkload(sc, cfg.Seed)
	if err != nil {
		b.Fatal(err)
	}
	type snapshot struct {
		g     *routing.Graph
		batch []netsim.Request
	}
	var snaps []snapshot
	for _, at := range cfg.SampleTimes(sc.Params) {
		g, err := sc.Graph(at)
		if err != nil {
			b.Fatal(err)
		}
		snaps = append(snaps, snapshot{g, append([]netsim.Request(nil), wl.Batch(cfg.RequestsPerStep)...)})
	}
	var (
		trees routing.SourceTrees
		path  []string
	)
	cost := routing.InverseEtaCost(sc.Params.RoutingEpsilon)
	pass := func() {
		for _, s := range snaps {
			trees.Load(s.g, cost)
			for _, req := range s.batch {
				if path, _, err = trees.AppendPath(path[:0], req.Src, req.Dst); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	pass() // warm-up sizes the pooled trees, as the first step of RunServe does
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}

// BenchmarkRoutesDisjoint108 is the protocol layer's route stage over one
// RunServe day: at each of the 100 DefaultServeConfig SpaceGround-108
// snapshots, one Adjacency load and then ExtractOn with k = 3 (the serve
// benchmark's budget) for every served request's Algorithm 1 route. The
// snapshots and routes are built before the timer starts, so an operation
// is route extraction only.
func BenchmarkRoutesDisjoint108(b *testing.B) {
	sc, err := NewSpaceGround(108, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultServeConfig()
	wl, err := NewWorkload(sc, cfg.Seed)
	if err != nil {
		b.Fatal(err)
	}
	type snapshot struct {
		g     *routing.Graph
		paths [][]string
	}
	var snaps []snapshot
	for _, at := range cfg.SampleTimes(sc.Params) {
		tables, g, err := sc.Routes(at)
		if err != nil {
			b.Fatal(err)
		}
		s := snapshot{g: g}
		for _, req := range wl.Batch(cfg.RequestsPerStep) {
			if !tables.Reachable(req.Src, req.Dst) {
				continue
			}
			path, err := tables.Path(req.Src, req.Dst)
			if err != nil {
				b.Fatal(err)
			}
			s.paths = append(s.paths, path)
		}
		snaps = append(snaps, s)
	}
	var (
		adj routing.Adjacency
		ds  routing.DisjointScratch
	)
	pass := func() {
		for _, s := range snaps {
			adj.Load(s.g, disjointCost)
			for _, path := range s.paths {
				if _, err := ds.ExtractOn(&adj, path, 3); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	pass() // size the buffers, as the first step of RunServe does
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}

func BenchmarkCoverageHour108Satellites(b *testing.B) {
	sc, err := NewSpaceGround(108, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Coverage(time.Hour); err != nil {
			b.Fatal(err)
		}
	}
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
