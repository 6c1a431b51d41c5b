package qntn

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"qntn/internal/netsim"
	"qntn/internal/orbit"
	"qntn/internal/quantum/protocol"
	"qntn/internal/routing"
	"qntn/internal/telemetry"
)

// benchWorkerCounts are the pool sizes each sweep family is measured at.
var benchWorkerCounts = []int{1, 2, 4}

// BenchmarkCoverageSweep measures the Fig. 6 sweep (all 18 paper sizes over
// a two-hour window) at several worker counts.
func BenchmarkCoverageSweep(b *testing.B) {
	p := DefaultParams()
	for _, workers := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := CoverageSweep(p, PaperSweepSizes(), 2*time.Hour, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServeSweep measures the Fig. 7/8 sweep (all 18 paper sizes, a
// quarter of the paper workload) at several worker counts.
func BenchmarkServeSweep(b *testing.B) {
	p := DefaultParams()
	cfg := ServeConfig{RequestsPerStep: 25, Steps: 25, Seed: 1}
	for _, workers := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ServeSweep(p, PaperSweepSizes(), cfg, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCoverageDay108 measures the paper's hardest coverage run — the
// 108-satellite constellation over a full day — on both execution paths:
// the brute-force stepped simulation and the event-driven visibility-window
// engine (identical results; see the oracle equivalence suite). "event" is
// FullDayCoverage, whose bridged check evaluates open pairs on demand;
// "event-detailed" is DetailedCoverage on the same engine, which still
// re-evaluates every open pair and maintains the graph. One warmup run
// precedes the timed loop so every path is measured at its reusable steady
// state.
func BenchmarkCoverageDay108(b *testing.B) {
	fullDay := func(sc *Scenario) error {
		_, err := sc.FullDayCoverage()
		return err
	}
	detailed := func(sc *Scenario) error {
		_, err := sc.DetailedCoverage(orbit.Day)
		return err
	}
	for _, mode := range []struct {
		name  string
		event bool
		run   func(*Scenario) error
	}{{"stepped", false, fullDay}, {"event", true, fullDay}, {"event-detailed", true, detailed}} {
		b.Run(mode.name, func(b *testing.B) {
			p := DefaultParams()
			p.EventDriven = mode.event
			sc, err := NewSpaceGround(108, p)
			if err != nil {
				b.Fatal(err)
			}
			if err := mode.run(sc); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := mode.run(sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWindowScan108 times the window layer alone: the candidate-run
// scan behind the event-driven engine over SpaceGround-108's full-day grid,
// rescanning into one reused windowScan as the pooled engine does. "gated"
// is production (every satellite pair is analytic, so the mover-pair sweep
// is skipped); "forced" runs the sweep anyway, for the sweep's cost.
func BenchmarkWindowScan108(b *testing.B) {
	p := DefaultParams()
	sc, err := NewSpaceGround(108, p)
	if err != nil {
		b.Fatal(err)
	}
	grid := coverageGrid(p.TopologyStep(), orbit.Day)
	for _, mode := range []struct {
		name  string
		force bool
	}{{"gated", false}, {"forced", true}} {
		b.Run("sweep="+mode.name, func(b *testing.B) {
			defer func(old bool) { moverSweepForce = old }(moverSweepForce)
			moverSweepForce = mode.force
			ws := sc.scanWindows(grid)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ws.scan(sc, grid)
			}
		})
	}
}

// BenchmarkCoverageDayWalker1k measures daylong stepped coverage of
// global-scale Walker constellations over the multi-continent ground set —
// the regime the spatial index targets. The two sizes pin the scaling: with
// dense n² candidate generation the per-step cost would quadruple from
// n=504 to n=1008; with the index it roughly doubles. Each case also
// reports the index's selectivity — the fraction of node pairs visited per
// step — as pairs-visited/step.
func BenchmarkCoverageDayWalker1k(b *testing.B) {
	shell := func(inclinationDeg, altitudeM float64) orbit.WalkerShell {
		return orbit.WalkerShell{TotalSats: 504, Planes: 12, Phasing: 1,
			InclinationDeg: inclinationDeg, AltitudeM: altitudeM}
	}
	cases := []struct {
		name   string
		shells []orbit.WalkerShell
	}{
		{"n=504", []orbit.WalkerShell{shell(53, 550e3)}},
		{"n=1008", []orbit.WalkerShell{shell(53, 550e3), shell(70, 600e3)}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			spec := WalkerSpec{Shells: tc.shells, ISLGrid: true, Ground: GlobalGroundNetworks()}
			sc, err := NewWalker(spec, DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			g := routing.NewGraph()
			var st netsim.SnapshotStats
			if err := sc.GraphInto(g, 0, &st); err != nil {
				b.Fatal(err)
			}
			if st.Pairs > 0 {
				b.ReportMetric(float64(int64(st.Pairs)-st.IndexCulled)/float64(st.Pairs), "pairs-visited/step")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sc.FullDayCoverage(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServeDaemonThroughput measures the serve daemon end to end: each
// iteration posts one fixed space-ground traffic query over HTTP and drains
// the NDJSON response. One warmup query before the timed loop populates the
// shared ephemeris cache, so the loop measures steady-state query cost —
// the figure an operator sizing a deployment cares about. The derived
// requests-evaluated/sec rate is reported as evals/s.
func BenchmarkServeDaemonThroughput(b *testing.B) {
	d, err := NewDaemon(DefaultParams(), testClock())
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	const query = `{"arch":"space-ground","satellites":54,"rate_per_hour_per_site":30,"horizon":"30m","seed":9}`
	post := func() {
		resp, err := http.Post(srv.URL+"/v1/traffic", "application/json", strings.NewReader(query))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("traffic query status %d", resp.StatusCode)
		}
	}
	post() // warm the ephemeris cache

	evalBefore := d.RequestsEvaluated()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
	evaluated := d.RequestsEvaluated() - evalBefore
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(evaluated)/secs, "evals/s")
	}
}

// daemonMix is the daemon-traffic query mix of perfbench/workloads.json:
// architecture, constellation size, horizon and share of the query pool.
var daemonMix = []struct {
	arch    string
	sats    int
	horizon string
	share   int
}{
	{"space-ground", 6, "10m", 6},
	{"space-ground", 24, "20m", 6},
	{"space-ground", 54, "10m", 6},
	{"space-ground", 54, "20m", 6},
	{"space-ground", 108, "10m", 6},
	{"space-ground", 108, "20m", 6},
	{"space-ground", 24, "30m", 6},
	{"air-ground", 0, "10m", 3},
	{"hybrid", 12, "10m", 3},
}

// daemonMixQueries expands daemonMix into the 48 queries of one pass:
// 30 requests/h/site, diurnal amplitude 0.3 peaking at 14 h, one worker,
// seeds numbered from 1.
func daemonMixQueries() []TrafficQuery {
	var queries []TrafficQuery
	for _, k := range daemonMix {
		for range k.share {
			queries = append(queries, TrafficQuery{
				Arch:               k.arch,
				Satellites:         k.sats,
				RatePerHourPerSite: 30,
				DiurnalAmplitude:   0.3,
				PeakHour:           14,
				Horizon:            k.horizon,
				Seed:               int64(len(queries) + 1),
				Workers:            1,
			})
		}
	}
	return queries
}

// BenchmarkServeDaemonStreams measures the traffic generation alone of the
// daemon-traffic mix: every site's seeded arrival stream and their merge,
// as RunTraffic draws them before admission. Scenarios, configurations and
// sites are resolved before the timer; one pass over the 48 queries warms
// the generator pool; an iteration is one pass, reported as ms/query.
func BenchmarkServeDaemonStreams(b *testing.B) {
	d, err := NewDaemon(DefaultParams(), testClock())
	if err != nil {
		b.Fatal(err)
	}
	type job struct {
		sites []trafficSite
		cfg   TrafficConfig
	}
	var jobs []job
	for _, q := range daemonMixQueries() {
		sc, cfg, err := d.prepare(q)
		if err != nil {
			b.Fatal(err)
		}
		sites, err := sc.trafficSites()
		if err != nil {
			b.Fatal(err)
		}
		jobs = append(jobs, job{sites, cfg.withDefaults()})
	}
	pass := func() {
		for _, j := range jobs {
			if _, err := generateTraffic(j.sites, j.cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	pass()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N*len(jobs)), "ms/query")
}

// BenchmarkServeDaemonMix measures the daemon's query path without HTTP
// over the daemon-traffic mix (30 requests/h/site, diurnal amplitude 0.3
// peaking at 14 h, one worker): each query is resolved by Daemon.prepare,
// so space-ground sizes assemble from the daemon's shared ephemeris caches,
// then runs an instrumented RunTraffic and encodes its NDJSON, as
// handleTraffic does. One pass over the 48 queries before the timer warms
// the caches and pools; an iteration is one pass, reported as ms/query.
func BenchmarkServeDaemonMix(b *testing.B) {
	d, err := NewDaemon(DefaultParams(), testClock())
	if err != nil {
		b.Fatal(err)
	}
	queries := daemonMixQueries()
	pass := func() {
		for _, q := range queries {
			sc, cfg, err := d.prepare(q)
			if err != nil {
				b.Fatal(err)
			}
			col := telemetry.NewCollector()
			sc.Instrument(col)
			if _, err := sc.RunTraffic(cfg); err != nil {
				b.Fatal(err)
			}
			if err := col.Events.WriteNDJSON(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
	pass()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N*len(queries)), "ms/query")
}

// BenchmarkEphemerisCache measures building the shared 108-satellite cache
// for a day of 30-second samples — the cost the sweeps now pay once instead
// of once per size.
func BenchmarkEphemerisCache(b *testing.B) {
	p := DefaultParams()
	var times []time.Duration
	for at := time.Duration(0); at < 24*time.Hour; at += 30 * time.Second {
		times = append(times, at)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewEphemerisCache(108, p, times); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeProtocol108 measures the protocol layer's serving overhead
// on the paper's largest constellation: the same RunServe workload with the
// entanglement protocol disabled (the seed model's hot path, byte-identical
// to pre-protocol behavior) and enabled (disjoint-route extraction, swap
// draws, dephasing and distillation per served request). The off/on pair is
// the cost of protocol realism.
func BenchmarkServeProtocol108(b *testing.B) {
	cfg := ServeConfig{RequestsPerStep: 25, Steps: 25, Seed: 1}
	variants := []struct {
		name  string
		proto protocol.Config
	}{
		{name: "off"},
		{name: "on", proto: protocol.Config{
			MemoryT2:    20 * time.Millisecond,
			SwapSuccess: 0.85,
			PurifyPaths: 3,
			Seed:        5,
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			p := DefaultParams()
			p.Protocol = v.proto
			sc, err := NewSpaceGround(108, p)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sc.RunServe(cfg); err != nil { // warm the ephemerides
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sc.RunServe(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
