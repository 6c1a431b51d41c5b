package qntn_test

// The event-driven differential-oracle suite: every scenario archetype runs
// through Coverage, DetailedCoverage and RunServe on both execution paths —
// brute-force stepped (the oracle) and event-driven (the subject) — and the
// results must be reflect.DeepEqual-identical, with faults off and on, at
// several worker counts. The suite lives in an external test package so it
// exercises exactly the public API the oracletest helpers wrap; white-box
// window tests live in windows_test.go.

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"qntn/internal/fault"
	"qntn/internal/orbit"
	"qntn/internal/qntn"
	"qntn/internal/qntn/oracletest"
	"qntn/internal/routing"
	"qntn/internal/telemetry"
)

// oracleServeConfig scales the paper workload down so eight archetypes times
// two fault variants stay affordable next to the rest of tier 1.
func oracleServeConfig(horizon time.Duration) qntn.ServeConfig {
	return qntn.ServeConfig{RequestsPerStep: 20, Steps: 40, Horizon: horizon, Seed: 7}
}

// referenceServeConfig is oracleServeConfig for a matrix leg checked against
// an Algorithm 1 reference, with the archetype's ReferenceSteps cap.
func referenceServeConfig(arch oracletest.Archetype, horizon time.Duration) qntn.ServeConfig {
	cfg := oracleServeConfig(horizon)
	if arch.ReferenceSteps > 0 {
		cfg.Steps = arch.ReferenceSteps
	}
	return cfg
}

// TestEventDrivenMatchesSteppedOracle is the core differential matrix:
// every archetype, faults off and on.
func TestEventDrivenMatchesSteppedOracle(t *testing.T) {
	for _, arch := range oracletest.Archetypes() {
		arch := arch
		check := func(t *testing.T, p qntn.Params) {
			oracletest.AssertAllEqual(t, arch.Build, p, arch.Duration, oracleServeConfig(arch.Duration))
		}
		t.Run(arch.Name, func(t *testing.T) {
			check(t, arch.Params())
		})
		t.Run(arch.Name+"-faults", func(t *testing.T) {
			p := arch.Params()
			p.Fault = oracletest.FaultConfig(11)
			check(t, p)
		})
	}
}

// TestLinkTransitionsMatchLinkTracker pins DetailedCoverage's link
// transition count, on both backends, to netsim.LinkTracker observing the
// stepped snapshot at every step: every archetype, faults off and on.
func TestLinkTransitionsMatchLinkTracker(t *testing.T) {
	for _, arch := range oracletest.Archetypes() {
		for _, faults := range []bool{false, true} {
			for _, event := range []bool{false, true} {
				name, p := arch.Name, arch.Params()
				if faults {
					name += "-faults"
					p.Fault = oracletest.FaultConfig(11)
				}
				if event {
					name += "-event"
				}
				p.EventDriven = event
				t.Run(name, func(t *testing.T) {
					sc, err := arch.Build(p)
					if err != nil {
						t.Fatal(err)
					}
					got, want, err := qntn.CompareLinkTransitions(sc, arch.Duration)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("DetailedCoverage counted %d link transitions, LinkTracker %d", got, want)
					}
					if want == 0 {
						t.Fatalf("degenerate archetype: no link transitions over %v", arch.Duration)
					}
				})
			}
		}
	}
}

// islChainArchetype returns the catalog's ISL-chain archetype.
func islChainArchetype(t *testing.T) oracletest.Archetype {
	t.Helper()
	for _, a := range oracletest.Archetypes() {
		if a.Name == "walker-480-islgrid-global" {
			return a
		}
	}
	t.Fatal("ISL-chain archetype missing from the catalog")
	return oracletest.Archetype{}
}

// TestISLChainArchetypeDecidedByRelayLinks pins what the ISL-chain
// archetype is for: its stepped coverage lies strictly between 0% and
// 100%, no relay links to every LAN at any covered step, so only
// relay↔relay links bridge them, and the same constellation without the
// +grid allowlist covers strictly more steps (the allowlist only removes
// links, so it can never cover fewer).
func TestISLChainArchetypeDecidedByRelayLinks(t *testing.T) {
	arch := islChainArchetype(t)
	sc, err := arch.Build(arch.Params())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Coverage(arch.Duration)
	if err != nil {
		t.Fatal(err)
	}
	if res.CoveredSteps == 0 || res.CoveredSteps == res.Steps {
		t.Fatalf("covered %d of %d steps; want strictly between none and all", res.CoveredSteps, res.Steps)
	}
	lanOf := make(map[string]string)
	for lan, ids := range sc.GroundIDs {
		for _, id := range ids {
			lanOf[id] = lan
		}
	}
	g := routing.NewGraph()
	for _, iv := range res.Intervals {
		for at := iv.Start; at < iv.End; at += sc.Params.TopologyStep() {
			if err := sc.GraphInto(g, at, nil); err != nil {
				t.Fatal(err)
			}
			for _, relay := range sc.RelayIDs {
				seen := make(map[string]bool)
				for _, nb := range g.Neighbors(relay) {
					if lan, ok := lanOf[nb]; ok {
						seen[lan] = true
					}
				}
				if len(seen) == len(sc.LANs) {
					t.Fatalf("t=%v: relay %s links to all %d LANs", at, relay, len(seen))
				}
			}
		}
	}
	spec := oracletest.ISLChainSpec()
	spec.ISLGrid = false
	unrestricted, err := qntn.NewWalker(spec, arch.Params())
	if err != nil {
		t.Fatal(err)
	}
	resOpen, err := unrestricted.Coverage(arch.Duration)
	if err != nil {
		t.Fatal(err)
	}
	if resOpen.CoveredSteps <= res.CoveredSteps {
		t.Fatalf("without the +grid allowlist %d steps covered, with it %d; want strictly more without", resOpen.CoveredSteps, res.CoveredSteps)
	}
	t.Logf("covered %d of %d steps with the +grid allowlist, %d without", res.CoveredSteps, res.Steps, resOpen.CoveredSteps)
}

// TestEventGraphDeepEqualsSteppedSnapshot compares the topology itself, not
// the results computed from it: at every grid instant, the graph the event
// engine maintains by adding and removing links in event order must be
// reflect.DeepEqual to the stepped snapshot, which admits links in
// ascending pair order — same nodes, same neighbour rows in the same order,
// bit-identical transmissivities. Every archetype runs, faults off and on,
// over at most two hours.
func TestEventGraphDeepEqualsSteppedSnapshot(t *testing.T) {
	for _, arch := range oracletest.Archetypes() {
		duration := min(arch.Duration, 2*time.Hour)
		for _, faults := range []bool{false, true} {
			name, p := arch.Name, arch.Params()
			if faults {
				name += "-faults"
				p.Fault = oracletest.FaultConfig(11)
			}
			t.Run(name, func(t *testing.T) {
				stepped, event := oracletest.Pair(t, arch.Build, p)
				ref := routing.NewGraph()
				steps, edges := 0, 0
				err := qntn.EachEventGraph(event, duration, func(at time.Duration, g *routing.Graph) {
					if err := stepped.GraphInto(ref, at, nil); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(g, ref) {
						t.Fatalf("t=%v: event-engine graph (%d edges) != stepped snapshot (%d edges)", at, g.NumEdges(), ref.NumEdges())
					}
					steps++
					edges += ref.NumEdges()
				})
				if err != nil {
					t.Fatal(err)
				}
				if steps == 0 || edges == 0 {
					t.Fatalf("degenerate run: %d steps, %d edges", steps, edges)
				}
			})
		}
	}
}

// TestDemandBridgedMatchesFullReevaluation pins Coverage's demand-driven
// bridged check, which evaluates only the open pairs that could still join
// two components and stops once the LANs meet, against the retired full
// re-evaluation of every open pair: the answers must agree at every grid
// step of every archetype, faults off and on. A 504-satellite +grid
// Walker over the global ground sites runs as well: like the ISL-chain
// archetype, only inter-satellite chains bridge its LANs, and over its
// hour it crosses more coverage transitions. On SpaceGround-108
// without faults (about 45% today) the check must also evaluate at most
// 60% of the open-pair steps, so a regression to evaluating every open
// pair fails here even though the answers agree.
func TestDemandBridgedMatchesFullReevaluation(t *testing.T) {
	global := qntn.WalkerSpec{
		Shells:  []orbit.WalkerShell{{TotalSats: 504, Planes: 12, Phasing: 1, InclinationDeg: 53, AltitudeM: 550e3}},
		ISLGrid: true,
		Ground:  qntn.GlobalGroundNetworks(),
	}
	archs := append(oracletest.Archetypes(), oracletest.Archetype{
		Name:     "walker-504-islgrid-global",
		Build:    func(p qntn.Params) (*qntn.Scenario, error) { return qntn.NewWalker(global, p) },
		Duration: time.Hour,
	})
	for _, arch := range archs {
		for _, faults := range []bool{false, true} {
			name, p := arch.Name, arch.Params()
			if faults {
				name += "-faults"
				p.Fault = oracletest.FaultConfig(11)
			}
			p.EventDriven = true
			t.Run(name, func(t *testing.T) {
				sc, err := arch.Build(p)
				if err != nil {
					t.Fatal(err)
				}
				covered := 0
				c, err := qntn.CompareBridgedSteps(sc, arch.Duration, func(at time.Duration, demand, full bool) {
					if demand != full {
						t.Fatalf("t=%v: demand-driven bridged %v, full re-evaluation %v", at, demand, full)
					}
					if full {
						covered++
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if c.FullEvals != c.OpenPairSteps {
					t.Fatalf("reference evaluated %d pairs over %d open-pair steps", c.FullEvals, c.OpenPairSteps)
				}
				t.Logf("%d steps, %d covered; pair evaluations %d demand-driven, %d full", c.Steps, covered, c.DemandEvals, c.FullEvals)
				if c.DemandEvals > c.FullEvals {
					t.Fatalf("demand-driven check evaluated %d pairs, more than the %d open-pair steps", c.DemandEvals, c.FullEvals)
				}
				if arch.Name == "space-ground-108" && !faults && 5*c.DemandEvals > 3*c.FullEvals {
					t.Fatalf("demand-driven check evaluated %d of %d open-pair steps; want at most 60%%", c.DemandEvals, c.FullEvals)
				}
			})
		}
	}
}

// TestSpatialIndexMatchesDense is the dense-vs-index differential matrix:
// every archetype, faults off and on, stepped and event-driven — toggling
// only Params.DisableSpatialIndex between otherwise identical builds. The
// spatial index is an exact candidate filter, so results must be
// byte-identical everywhere; durations are capped so the doubled build
// count stays affordable next to the engine matrix above.
func TestSpatialIndexMatchesDense(t *testing.T) {
	for _, arch := range oracletest.Archetypes() {
		arch := arch
		duration := arch.Duration
		if duration > 2*time.Hour {
			duration = 2 * time.Hour
		}
		t.Run(arch.Name, func(t *testing.T) {
			oracletest.AssertIndexEquivalence(t, arch.Build, arch.Params(), duration)
		})
		t.Run(arch.Name+"-faults", func(t *testing.T) {
			p := arch.Params()
			p.Fault = oracletest.FaultConfig(11)
			oracletest.AssertIndexEquivalence(t, arch.Build, p, duration)
		})
	}
}

// TestEventDrivenServeSweepWorkers runs the serve sweep — whose per-size
// scenarios route through RunServe and therefore through the event engine
// when EventDriven is set — at 1, 2 and 8 workers, and requires all six
// point sets (3 worker counts x 2 paths) to agree.
func TestEventDrivenServeSweepWorkers(t *testing.T) {
	sizes := []int{6, 24}
	cfg := qntn.ServeConfig{RequestsPerStep: 15, Steps: 30, Horizon: 6 * time.Hour, Seed: 3}
	p := qntn.DefaultParams()
	want, err := qntn.ServeSweep(p, sizes, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		pe := p
		pe.EventDriven = true
		got, err := qntn.ServeSweep(pe, sizes, cfg, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: event-driven serve sweep diverged from stepped\n got: %+v\nwant: %+v", workers, got, want)
		}
		if workers == 1 {
			continue
		}
		gotStepped, err := qntn.ServeSweep(p, sizes, cfg, workers)
		if err != nil {
			t.Fatalf("workers=%d stepped: %v", workers, err)
		}
		if !reflect.DeepEqual(gotStepped, want) {
			t.Fatalf("workers=%d: stepped serve sweep not worker-invariant", workers)
		}
	}
}

// TestEventDrivenCoverageSweepWorkers pins the coverage sweep against
// per-size Coverage runs of both paths at 1, 2 and 8 workers: a
// worker-invariance check and a three-way equivalence, sweep == stepped
// Coverage == event-driven Coverage for every size. Every size's
// DetailedCoverage.All must equal Coverage too. Under ground-station
// downtime a down host splits its LAN, which leaves the region uncovered
// even while the LAN's other hosts reach a relay; air-ground runs that
// input for the Coverage/DetailedCoverage half.
func TestEventDrivenCoverageSweepWorkers(t *testing.T) {
	downtime := fault.Config{GroundMTBF: 24 * time.Hour, GroundMTTR: 30 * time.Minute, Seed: 1}
	cases := []struct {
		name     string
		fault    fault.Config
		sizes    []int
		duration time.Duration
	}{
		{"fault-free", fault.Config{}, []int{6, 12, 24}, 6 * time.Hour},
		{"ground-downtime", downtime, []int{24, 108}, 6 * time.Hour},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := qntn.DefaultParams()
			p.Fault = tc.fault
			var want []qntn.CoveragePoint
			for _, workers := range []int{1, 2, 8} {
				pts, err := qntn.CoverageSweep(p, tc.sizes, tc.duration, workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if want == nil {
					want = pts
				} else if !reflect.DeepEqual(pts, want) {
					t.Fatalf("workers=%d: coverage sweep not worker-invariant", workers)
				}
			}
			for i, n := range tc.sizes {
				build := func(p qntn.Params) (*qntn.Scenario, error) { return qntn.NewSpaceGround(n, p) }
				cov := assertDetailedAllIsCoverage(t, build, p, tc.duration)
				if !reflect.DeepEqual(*cov, want[i].Result) {
					t.Fatalf("size %d: sweep result %+v != per-size coverage result %+v", n, want[i].Result, *cov)
				}
			}
		})
	}
	t.Run("air-ground-downtime", func(t *testing.T) {
		p := qntn.DefaultParams()
		p.Fault = downtime
		assertDetailedAllIsCoverage(t, qntn.NewAirGround, p, 6*time.Hour)
	})
}

// assertDetailedAllIsCoverage requires Coverage and DetailedCoverage to
// agree between the two backends, and DetailedCoverage.All to equal
// Coverage. It returns the coverage result.
func assertDetailedAllIsCoverage(t *testing.T, build oracletest.Builder, p qntn.Params, duration time.Duration) *qntn.CoverageResult {
	t.Helper()
	cov := oracletest.AssertCoverageEqual(t, build, p, duration)
	detail := oracletest.AssertDetailedCoverageEqual(t, build, p, duration)
	if !reflect.DeepEqual(detail.All, *cov) {
		t.Fatalf("DetailedCoverage.All %+v != Coverage %+v", detail.All, *cov)
	}
	return cov
}

// TestEventDrivenTelemetryFallsBackToStepped: instrumented scenarios must keep using
// the stepped path (the engine records no telemetry), transparently — same
// results, telemetry still collected.
func TestEventDrivenTelemetryFallsBackToStepped(t *testing.T) {
	p := qntn.DefaultParams()
	p.EventDriven = true
	sc, err := qntn.NewSpaceGround(6, p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sc.Coverage(2 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.NewCollector()
	pi := p
	pi.Telemetry = col
	sci, err := qntn.NewSpaceGround(6, pi)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sci.Coverage(2 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("instrumented coverage diverged\n got: %+v\nwant: %+v", got, want)
	}
	if steps := col.Registry.Counter("coverage_steps_total").Value(); steps != uint64(want.Steps) {
		t.Fatalf("instrumented run recorded %d coverage steps, want %d — telemetry not collected", steps, want.Steps)
	}
}

// admissionEqual runs RunArrivals and RunTraffic over horizon on both
// topology backends and requires DeepEqual-identical results. It returns
// the stepped oracle's served count across both drivers.
func admissionEqual(t *testing.T, build oracletest.Builder, p qntn.Params, horizon time.Duration) int {
	t.Helper()
	stepped, event := oracletest.Pair(t, build, p)
	acfg := qntn.ArrivalConfig{RatePerHour: 120, Horizon: horizon, Seed: 3}
	wantA, err := stepped.RunArrivals(acfg)
	if err != nil {
		t.Fatalf("stepped arrivals: %v", err)
	}
	gotA, err := event.RunArrivals(acfg)
	if err != nil {
		t.Fatalf("event-driven arrivals: %v", err)
	}
	if !reflect.DeepEqual(gotA, wantA) {
		t.Fatalf("event-driven arrivals diverged from stepped\n got: %+v\nwant: %+v", gotA, wantA)
	}
	tcfg := qntn.TrafficConfig{RatePerHourPerSite: 10, Horizon: horizon, Seed: 3}
	wantT, err := stepped.RunTraffic(tcfg)
	if err != nil {
		t.Fatalf("stepped traffic: %v", err)
	}
	gotT, err := event.RunTraffic(tcfg)
	if err != nil {
		t.Fatalf("event-driven traffic: %v", err)
	}
	if !reflect.DeepEqual(gotT, wantT) {
		t.Fatalf("event-driven traffic diverged from stepped\n got: %+v\nwant: %+v", gotT, wantT)
	}
	return wantA.Served + wantT.Served
}

// TestEventDrivenAdmissionMatchesStepped: the admission loop behind
// RunArrivals and RunTraffic steps a topoStepper like every other driver,
// so both backends must agree on every serve archetype, faults off and on,
// and with the entanglement-protocol layer on. An instrumented event-driven
// RunTraffic falls back to stepping: it must return the uninstrumented
// stepped result and emit the NDJSON of an instrumented stepped run.
func TestEventDrivenAdmissionMatchesStepped(t *testing.T) {
	served := 0
	for _, arch := range oracletest.Archetypes() {
		arch := arch
		t.Run(arch.Name, func(t *testing.T) {
			served += admissionEqual(t, arch.Build, arch.Params(), arch.Duration)
		})
		t.Run(arch.Name+"-faults", func(t *testing.T) {
			p := arch.Params()
			p.Fault = oracletest.FaultConfig(11)
			served += admissionEqual(t, arch.Build, p, arch.Duration)
		})
		t.Run(arch.Name+"-protocol", func(t *testing.T) {
			p := arch.Params()
			p.Protocol = protocolOracleConfig()
			served += admissionEqual(t, arch.Build, p, min(arch.Duration, 4*time.Hour))
		})
	}
	if served == 0 {
		t.Fatal("degenerate matrix: no archetype served a single request")
	}

	t.Run("instrumented-traffic", func(t *testing.T) {
		cfg := qntn.TrafficConfig{RatePerHourPerSite: 10, Horizon: 2 * time.Hour, Seed: 4}
		run := func(eventDriven bool, col *telemetry.Collector) (*qntn.TrafficResult, string) {
			p := qntn.DefaultParams()
			p.EventDriven = eventDriven
			p.Telemetry = col
			sc, err := qntn.NewSpaceGround(24, p)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sc.RunTraffic(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var ndjson strings.Builder
			if col != nil {
				if err := col.Events.WriteNDJSON(&ndjson); err != nil {
					t.Fatal(err)
				}
			}
			return res, ndjson.String()
		}
		want, _ := run(false, nil)
		steppedRes, steppedEvents := run(false, telemetry.NewCollector())
		got, gotEvents := run(true, telemetry.NewCollector())
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(steppedRes, want) {
			t.Fatalf("instrumented traffic diverged from uninstrumented stepped\n got: %+v\nwant: %+v", got, want)
		}
		if gotEvents != steppedEvents {
			t.Fatal("instrumented event-driven traffic emitted a different NDJSON stream than the instrumented stepped run")
		}
		if lines := strings.Count(gotEvents, "\n"); lines != want.Steps {
			t.Fatalf("%d NDJSON events, want one per topology update (%d)", lines, want.Steps)
		}
	})
}
