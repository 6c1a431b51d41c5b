// Package oracletest provides reusable differential-testing helpers that
// pit the event-driven execution path against the brute-force stepped
// simulation, which remains the semantic oracle: two scenarios are built
// from identical parameters — differing only in Params.EventDriven — and
// every experiment result must be reflect.DeepEqual-identical between them.
//
// The helpers grew out of the PR-3 snapshot equivalence harness
// (snapshot_equiv_test.go) and extend it from single-snapshot graph
// equality to whole-experiment equality: Coverage intervals, per-pair
// coverage breakdowns with link-transition counts, and full serve results
// including metrics and fidelity summaries. Any future execution path
// (GPU offload, distributed stepping, ...) can reuse the same archetype
// catalog and assertions.
package oracletest

import (
	"reflect"
	"testing"
	"time"

	"qntn/internal/fault"
	"qntn/internal/orbit"
	"qntn/internal/qntn"
)

// Builder constructs a scenario from a parameter set. The same builder is
// invoked twice per assertion — once for the stepped oracle, once for the
// event-driven subject — so it must be deterministic in its inputs.
type Builder func(p qntn.Params) (*qntn.Scenario, error)

// Archetype is one named scenario family of the differential suite.
type Archetype struct {
	Name string
	// Build constructs the scenario.
	Build Builder
	// Duration is the coverage horizon the suite exercises the archetype
	// over — scaled down for the large constellations so the stepped
	// oracle stays affordable in tier-1 test time.
	Duration time.Duration
	// Darkness enables the night-only operation constraint, exercising
	// darkness boundaries where ground stations join and leave service.
	Darkness bool
	// ReferenceSteps, when positive, caps the serve steps of the matrix
	// legs checked against an Algorithm 1 reference (the retired serve
	// bodies and the scalar protocol reference): on the ISL-chain
	// archetype's 531 nodes, Algorithm 1's n×n tables cost about 0.16 s
	// per step, which the dozens of reference runs cannot afford at the
	// full step count in tier-1 time. The production kernels' own legs run
	// every step.
	ReferenceSteps int
}

// ISLChainSpec is the +grid Walker of the "walker-480-islgrid-global"
// archetype: one 480-satellite shell of 12 planes (53° at 550 km) over
// GlobalGroundNetworks. The LANs lie on five continents, so no relay sees
// them all and only inter-satellite chains can bridge them; at 40
// satellites per plane the ring neighbours sit just inside the ISL range,
// and over the archetype's 10 minutes the grid bridges the LANs at some
// steps but not all.
func ISLChainSpec() qntn.WalkerSpec {
	return qntn.WalkerSpec{
		Shells:  []orbit.WalkerShell{{TotalSats: 480, Planes: 12, Phasing: 1, InclinationDeg: 53, AltitudeM: 550e3}},
		ISLGrid: true,
		Ground:  qntn.GlobalGroundNetworks(),
	}
}

// Archetypes returns the suite's scenario catalog: the paper's SpaceGround
// constellation sizes (6/24/54/108), the AirGround HAP architecture, the
// Hybrid future-work mix, a two-shell Walker constellation with the +grid
// inter-satellite-link topology — the global-scale regime the spatial
// index targets (96 satellites, over the index's node cutoff) — and the
// ISLChainSpec Walker. In every other archetype one relay in view of all
// three Tennessee LANs decides bridging; in the last only relay↔relay
// links can, and its Algorithm 1 reference legs run fewer steps
// (ReferenceSteps).
// Darkness settings mirror the snapshot equivalence suite so both
// harnesses stress the same regimes; HAP downtime comes from the faults-on
// pass (FaultConfig).
func Archetypes() []Archetype {
	spaceGround := func(n int) Builder {
		return func(p qntn.Params) (*qntn.Scenario, error) { return qntn.NewSpaceGround(n, p) }
	}
	walker := qntn.WalkerSpec{
		Shells: []orbit.WalkerShell{
			{TotalSats: 48, Planes: 8, Phasing: 1, InclinationDeg: 53, AltitudeM: 550e3},
			{TotalSats: 48, Planes: 8, Phasing: 1, InclinationDeg: 60, AltitudeM: 600e3},
		},
		ISLGrid: true,
	}
	return []Archetype{
		{Name: "space-ground-6", Build: spaceGround(6), Duration: 12 * time.Hour},
		{Name: "space-ground-24", Build: spaceGround(24), Duration: 8 * time.Hour},
		{Name: "space-ground-54-darkness", Build: spaceGround(54), Duration: 6 * time.Hour, Darkness: true},
		{Name: "space-ground-108", Build: spaceGround(108), Duration: 4 * time.Hour},
		{Name: "air-ground", Build: qntn.NewAirGround, Duration: 12 * time.Hour, Darkness: true},
		{Name: "hybrid-12", Build: func(p qntn.Params) (*qntn.Scenario, error) { return qntn.NewHybrid(12, p) },
			Duration: 8 * time.Hour, Darkness: true},
		{Name: "walker-96-islgrid", Build: func(p qntn.Params) (*qntn.Scenario, error) { return qntn.NewWalker(walker, p) },
			Duration: 3 * time.Hour},
		{Name: "walker-480-islgrid-global", Build: func(p qntn.Params) (*qntn.Scenario, error) { return qntn.NewWalker(ISLChainSpec(), p) },
			Duration: 10 * time.Minute, ReferenceSteps: 5},
	}
}

// Params returns the archetype's parameter set: defaults plus its darkness
// setting.
func (a Archetype) Params() qntn.Params {
	p := qntn.DefaultParams()
	p.RequireDarkness = a.Darkness
	return p
}

// FaultConfig returns the suite's shared fault mix: platform outages on
// every node kind plus attenuating weather, aggressive enough that every
// fault gate fires within a few simulated hours.
func FaultConfig(seed int64) fault.Config {
	return fault.Config{
		SatMTBF: 2 * time.Hour, SatMTTR: 20 * time.Minute,
		HAPMTBF: 3 * time.Hour, HAPMTTR: 30 * time.Minute,
		GroundMTBF: 6 * time.Hour, GroundMTTR: 15 * time.Minute,
		WeatherP: 0.2, WeatherAttenuation: 0.5,
		Seed: seed,
	}
}

// Pair builds the scenario twice from identical parameters: the stepped
// oracle (EventDriven off) and the event-driven subject (EventDriven on).
func Pair(t testing.TB, build Builder, p qntn.Params) (stepped, event *qntn.Scenario) {
	t.Helper()
	p.EventDriven = false
	stepped, err := build(p)
	if err != nil {
		t.Fatalf("oracletest: building stepped oracle: %v", err)
	}
	pe := p
	pe.EventDriven = true
	event, err = build(pe)
	if err != nil {
		t.Fatalf("oracletest: building event-driven subject: %v", err)
	}
	return stepped, event
}

// AssertCoverageEqual requires Coverage to be DeepEqual-identical between
// the two paths and returns the oracle result for further inspection.
func AssertCoverageEqual(t testing.TB, build Builder, p qntn.Params, duration time.Duration) *qntn.CoverageResult {
	t.Helper()
	stepped, event := Pair(t, build, p)
	want, err := stepped.Coverage(duration)
	if err != nil {
		t.Fatalf("oracletest: stepped coverage: %v", err)
	}
	got, err := event.Coverage(duration)
	if err != nil {
		t.Fatalf("oracletest: event-driven coverage: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("oracletest: event-driven coverage diverged from stepped oracle\n got: %+v\nwant: %+v", got, want)
	}
	return want
}

// AssertDetailedCoverageEqual requires DetailedCoverage — per-pair
// intervals and link-transition counts included — to be DeepEqual-identical
// between the two paths.
func AssertDetailedCoverageEqual(t testing.TB, build Builder, p qntn.Params, duration time.Duration) *qntn.CoverageDetail {
	t.Helper()
	stepped, event := Pair(t, build, p)
	want, err := stepped.DetailedCoverage(duration)
	if err != nil {
		t.Fatalf("oracletest: stepped detailed coverage: %v", err)
	}
	got, err := event.DetailedCoverage(duration)
	if err != nil {
		t.Fatalf("oracletest: event-driven detailed coverage: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("oracletest: event-driven detailed coverage diverged from stepped oracle\n got: %+v\nwant: %+v", got, want)
	}
	return want
}

// AssertServeEqual requires RunServe — metrics, fidelity summary, and path
// transmissivities included — to be DeepEqual-identical between the two
// paths.
func AssertServeEqual(t testing.TB, build Builder, p qntn.Params, cfg qntn.ServeConfig) *qntn.ServeResult {
	t.Helper()
	stepped, event := Pair(t, build, p)
	want, err := stepped.RunServe(cfg)
	if err != nil {
		t.Fatalf("oracletest: stepped serve: %v", err)
	}
	got, err := event.RunServe(cfg)
	if err != nil {
		t.Fatalf("oracletest: event-driven serve: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("oracletest: event-driven serve diverged from stepped oracle\n got: %+v\nwant: %+v", got, want)
	}
	return want
}

// AssertIndexEquivalence requires Coverage to be DeepEqual-identical
// between spatial-index candidate generation (the default) and the dense n²
// scan (Params.DisableSpatialIndex), on both the stepped and the
// event-driven execution path. DisableSpatialIndex is the only knob toggled
// between the two builds; on scenarios below the index's node cutoff the
// toggle is a no-op and the assertion is vacuous but still cheap.
func AssertIndexEquivalence(t testing.TB, build Builder, p qntn.Params, duration time.Duration) {
	t.Helper()
	for _, eventDriven := range []bool{false, true} {
		pi := p
		pi.EventDriven = eventDriven
		pi.DisableSpatialIndex = false
		indexed, err := build(pi)
		if err != nil {
			t.Fatalf("oracletest: building indexed scenario: %v", err)
		}
		pd := pi
		pd.DisableSpatialIndex = true
		dense, err := build(pd)
		if err != nil {
			t.Fatalf("oracletest: building dense scenario: %v", err)
		}
		want, err := dense.Coverage(duration)
		if err != nil {
			t.Fatalf("oracletest: dense coverage: %v", err)
		}
		got, err := indexed.Coverage(duration)
		if err != nil {
			t.Fatalf("oracletest: indexed coverage: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("oracletest: spatial index diverged from dense scan (eventDriven=%v)\n got: %+v\nwant: %+v",
				eventDriven, got, want)
		}
	}
}

// AssertAllEqual runs the three experiment assertions back to back and
// requires a non-degenerate run: an oracle that covers zero steps in every
// experiment would vacuously pass, so at least one topology evaluation must
// have happened.
func AssertAllEqual(t testing.TB, build Builder, p qntn.Params, duration time.Duration, cfg qntn.ServeConfig) {
	t.Helper()
	cov := AssertCoverageEqual(t, build, p, duration)
	AssertDetailedCoverageEqual(t, build, p, duration)
	AssertServeEqual(t, build, p, cfg)
	if cov.Steps == 0 {
		t.Fatalf("oracletest: degenerate run: zero coverage steps at duration %v", duration)
	}
}
