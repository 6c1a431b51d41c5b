package qntn

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"qntn/internal/fault"
)

// faultyParams is the shared fault mix for the equivalence suite: platform
// outages on every kind plus attenuating weather, aggressive enough that
// every gate fires within a short window.
func faultyParams(seed int64) Params {
	p := fastSweepParams()
	p.Fault = fault.Config{
		SatMTBF: 2 * time.Hour, SatMTTR: 20 * time.Minute,
		HAPMTBF: 3 * time.Hour, HAPMTTR: 30 * time.Minute,
		GroundMTBF: 6 * time.Hour, GroundMTTR: 15 * time.Minute,
		WeatherP: 0.2, WeatherAttenuation: 0.5,
		Seed: seed,
	}
	return p
}

// TestFaultDisabledLeavesModelUndecorated: a zero fault config must build
// no fault schedule — fault-free runs stay byte-identical to the baseline
// by construction, since the gate's down and weather bits never leave
// zero — while an enabled config builds one over the scenario's nodes.
func TestFaultDisabledLeavesModelUndecorated(t *testing.T) {
	sc, err := NewSpaceGround(6, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if sc.faults != nil {
		t.Fatal("zero fault config built a fault schedule")
	}
	fsc, err := NewSpaceGround(6, faultyParams(1))
	if err != nil {
		t.Fatal(err)
	}
	if fsc.faults == nil {
		t.Fatal("enabled fault config built no fault schedule")
	}
}

// TestFaultIdleDecoratorIsIdentity: even with a schedule installed, when it
// holds no outages and no weather every graph must be DeepEqual to the
// fault-free baseline — the gate removes links, never changes physics.
func TestFaultIdleDecoratorIsIdentity(t *testing.T) {
	p := DefaultParams()
	base, err := NewSpaceGround(12, p)
	if err != nil {
		t.Fatal(err)
	}
	// The schedule is drawn over base's nodes, which carry the same IDs as
	// gated's, and handed to gated's assembly.
	sched, err := fault.NewSchedule(fault.Config{Seed: 9}, base.Net.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	sats, err := paperFleet(12, p)
	if err != nil {
		t.Fatal(err)
	}
	gated, err := assembleWith(SpaceGround, p, GroundNetworks(), sats, assembly{faults: sched})
	if err != nil {
		t.Fatal(err)
	}
	if gated.faults != sched || gated.table.spans == nil {
		t.Fatal("assembly did not install the schedule")
	}
	for s := 0; s < 40; s++ {
		at := time.Duration(s) * 4 * time.Minute
		want, err := base.Graph(at)
		if err != nil {
			t.Fatal(err)
		}
		got, err := gated.Graph(at)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("t=%v: idle fault schedule changed the graph\ngot:  %v\nwant: %v",
				at, edgeMap(got), edgeMap(want))
		}
	}
}

// TestFaultGateCases pins the gate's rules on an air-ground scenario,
// through both the per-pair reference (EvaluateLink) and the batched
// evaluator: a failed platform drops its link; fiber survives a platform
// outage and weather; a blackout's attenuation clears a low enough gate,
// a stricter gate severs the link, and zero attenuation always severs it.
// The HAP downlink's η is about 0.96 and time-invariant, so the clean
// scenario's η is the reference at every instant.
func TestFaultGateCases(t *testing.T) {
	cfg := fault.Config{HAPMTBF: time.Hour, HAPMTTR: 30 * time.Minute, WeatherP: 0.3, WeatherAttenuation: 0.5, Seed: 11}
	build := func(threshold float64, f fault.Config) *Scenario {
		t.Helper()
		p := DefaultParams()
		p.TransmissivityThreshold = threshold
		p.Fault = f
		sc, err := NewAirGround(p)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	// eval returns the gate's answer for the pair, failing unless both
	// evaluation paths agree bit for bit.
	eval := func(sc *Scenario, a, b string, at time.Duration) (float64, bool) {
		t.Helper()
		eta, ok := sc.EvaluateLink(a, b, at)
		idx := map[string]int{}
		for i, n := range sc.Net.Nodes() {
			idx[n.ID()] = i
		}
		ev := sc.Net.BeginStep(at)
		beta, bok := ev.EvaluatePair(idx[a], idx[b])
		ev.Close()
		if eta != beta || ok != bok {
			t.Fatalf("t=%v %s-%s: EvaluateLink (%g, %v) != batched (%g, %v)", at, a, b, eta, ok, beta, bok)
		}
		return eta, ok
	}
	host, peer := NodeID("TTU", 0), NodeID("TTU", 1)
	clean := build(0.3, fault.Config{})
	hapEta, ok := clean.EvaluateLink(host, HAPID, 0)
	if !ok {
		t.Fatal("clean HAP downlink unusable")
	}
	fiberEta, ok := clean.EvaluateLink(host, peer, 0)
	if !ok {
		t.Fatal("clean fiber link unusable")
	}

	sc := build(0.3, cfg)
	hapDown := sc.faults.DownSpans(HAPID)
	if len(hapDown) == 0 {
		t.Fatal("expected HAP outages")
	}
	tDown := hapDown[0].Start
	if _, ok := eval(sc, host, HAPID, tDown); ok {
		t.Error("link to a failed platform must vanish")
	}
	if eta, ok := eval(sc, host, peer, tDown); !ok || eta != fiberEta {
		t.Errorf("fiber during HAP outage: got (%g, %v), want (%g, true)", eta, ok, fiberEta)
	}

	// Find a blackout instant where the HAP is up.
	tW := time.Duration(-1)
	for _, sp := range sc.faults.WeatherSpans() {
		for at := sp.Start; at < sp.End && tW < 0; at += time.Second {
			if !sc.faults.Down(HAPID, at) {
				tW = at
			}
		}
		if tW >= 0 {
			break
		}
	}
	if tW < 0 {
		t.Fatal("no blackout instant with the HAP up")
	}
	if eta, ok := eval(sc, host, peer, tW); !ok || eta != fiberEta {
		t.Errorf("fiber during weather: got (%g, %v), want (%g, true)", eta, ok, fiberEta)
	}
	// η × 0.5 ≈ 0.48 clears the 0.3 gate.
	if eta, ok := eval(sc, host, HAPID, tW); !ok || eta != hapEta*0.5 {
		t.Errorf("attenuated ground-relay link: got (%g, %v), want (%g, true)", eta, ok, hapEta*0.5)
	}
	// The paper's 0.7 gate admits the clear-sky link but not the
	// attenuated one.
	if _, ok := eval(build(0.7, cfg), host, HAPID, tW); ok {
		t.Error("attenuated link below the threshold must be severed")
	}
	sever := cfg
	sever.WeatherAttenuation = 0
	if _, ok := eval(build(0, sever), host, HAPID, tW); ok {
		t.Error("zero attenuation must sever ground-relay links in a blackout")
	}
}

// TestFaultStepEvaluatorMatchesEvaluateLink: on a faulted air-ground
// scenario (HAP and ground outages, attenuating weather, the paper's 0.7
// gate) the batched step evaluator must answer every pair exactly as the
// per-pair reference EvaluateLink does, at every instant of the schedule.
func TestFaultStepEvaluatorMatchesEvaluateLink(t *testing.T) {
	p := DefaultParams()
	p.TransmissivityThreshold = 0.7
	p.Fault = fault.Config{
		HAPMTBF: time.Hour, HAPMTTR: 20 * time.Minute,
		GroundMTBF: 3 * time.Hour, GroundMTTR: time.Hour,
		WeatherP: 0.25, WeatherAttenuation: 0.9, Seed: 19,
	}
	sc, err := NewAirGround(p)
	if err != nil {
		t.Fatal(err)
	}
	nodes := sc.Net.Nodes()
	for at := time.Duration(0); at < fault.DefaultHorizon; at += 7 * time.Minute {
		ev := sc.Net.BeginStep(at)
		for i := 0; i < len(nodes); i++ {
			for j := i + 1; j < len(nodes); j++ {
				be, bok := ev.EvaluatePair(i, j)
				re, rok := sc.EvaluateLink(nodes[i].ID(), nodes[j].ID(), at)
				if be != re || bok != rok {
					t.Fatalf("at %v pair (%s,%s): batched (%g, %v) != reference (%g, %v)",
						at, nodes[i].ID(), nodes[j].ID(), be, bok, re, rok)
				}
			}
		}
		ev.Close()
	}
}

// TestFaultRunPastHorizonErrors: the schedule reports everything up from
// its horizon on, so a faulted run sampling an instant at or past it is
// refused on both topology backends and by the coverage sweep, naming the
// params key that lengthens the schedule. A run that stays inside it goes
// through.
func TestFaultRunPastHorizonErrors(t *testing.T) {
	for _, eventDriven := range []bool{false, true} {
		p := faultyParams(3)
		p.EventDriven = eventDriven
		p.Fault.Horizon = 2 * time.Hour
		sc, err := NewAirGround(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sc.Coverage(2 * time.Hour); err != nil {
			t.Errorf("event-driven=%v: run inside the horizon failed: %v", eventDriven, err)
		}
		_, err = sc.Coverage(3 * time.Hour)
		if err == nil || !strings.Contains(err.Error(), "fault.horizon_s") {
			t.Errorf("event-driven=%v: coverage past the horizon: err = %v, want one naming fault.horizon_s", eventDriven, err)
		}
		_, err = sc.RunServe(ServeConfig{RequestsPerStep: 2, Steps: 4, Horizon: 3 * time.Hour, Seed: 1})
		if err == nil || !strings.Contains(err.Error(), "fault.horizon_s") {
			t.Errorf("event-driven=%v: serve past the horizon: err = %v, want one naming fault.horizon_s", eventDriven, err)
		}
	}
	p := faultyParams(3)
	p.Fault.Horizon = 2 * time.Hour
	if _, err := CoverageSweep(p, []int{6}, 3*time.Hour, 1); err == nil || !strings.Contains(err.Error(), "fault.horizon_s") {
		t.Errorf("coverage sweep past the horizon: err = %v, want one naming fault.horizon_s", err)
	}
}

// TestCoverFaultsLengthensSchedule: a faulted one-day RunArrivals samples
// its horizon instant, so the default schedule refuses it and the one
// CoverFaults lengthens runs it, on both topology backends. The lengthened
// schedule reads as the default one at every instant of the day. Params
// without faults, or with a schedule already past the run, are unchanged.
func TestCoverFaultsLengthensSchedule(t *testing.T) {
	if p := DefaultParams(); !reflect.DeepEqual(p.CoverFaults(48*time.Hour), p) {
		t.Error("CoverFaults changed fault-free params")
	}
	if got := faultyParams(5).CoverFaults(2 * time.Hour).Fault.Horizon; got != 0 {
		t.Errorf("a 2h run inside the default day set the horizon to %v", got)
	}
	day := fault.DefaultHorizon
	for _, eventDriven := range []bool{false, true} {
		p := faultyParams(5)
		p.EventDriven = eventDriven
		covered := p.CoverFaults(day)
		if want := day + p.TopologyStep(); covered.Fault.Horizon != want {
			t.Fatalf("covered horizon %v, want %v", covered.Fault.Horizon, want)
		}
		short, err := NewAirGround(p)
		if err != nil {
			t.Fatal(err)
		}
		long, err := NewAirGround(covered)
		if err != nil {
			t.Fatal(err)
		}
		cfg := ArrivalConfig{RatePerHour: 20, Horizon: day, Seed: 2}
		if _, err := short.RunArrivals(cfg); err == nil || !strings.Contains(err.Error(), "fault.horizon_s") {
			t.Errorf("event-driven=%v: one-day arrivals on the default schedule: err = %v, want one naming fault.horizon_s", eventDriven, err)
		}
		if _, err := long.RunArrivals(cfg); err != nil {
			t.Errorf("event-driven=%v: one-day arrivals on the covering schedule: %v", eventDriven, err)
		}
		for at := time.Duration(0); at < day; at += time.Minute {
			if short.faults.Weather(at) != long.faults.Weather(at) {
				t.Fatalf("weather at %v differs after lengthening", at)
			}
			for _, n := range short.Net.Nodes() {
				if short.faults.Down(n.ID(), at) != long.faults.Down(n.ID(), at) {
					t.Fatalf("%s at %v differs after lengthening", n.ID(), at)
				}
			}
		}
	}
}

// TestFaultSnapshotFastPathMatchesReference extends the PR-3 bit-identity
// contract to faulted scenarios: the pooled batched evaluator, the reused
// arena graph, and independent per-pair EvaluateLink calls must agree on
// every edge at every instant while platforms fail and weather rolls in.
func TestFaultSnapshotFastPathMatchesReference(t *testing.T) {
	t.Run("space-ground-12", func(t *testing.T) {
		sc, err := NewSpaceGround(12, faultyParams(7))
		if err != nil {
			t.Fatal(err)
		}
		assertStepEquivalence(t, sc, 80, 5*time.Minute)
	})
	t.Run("air-ground", func(t *testing.T) {
		// The HAP fails as in the outage study (u = 0.2, one-step
		// repairs), toggling its links far more often than faultyParams'
		// 30-minute repairs; ground outages and weather stay on.
		p := faultyParams(3)
		hap := fault.HAPUnavailability(0.2, p.TopologyStep(), 0, 3)
		p.Fault.HAPMTBF, p.Fault.HAPMTTR = hap.HAPMTBF, hap.HAPMTTR
		sc, err := NewAirGround(p)
		if err != nil {
			t.Fatal(err)
		}
		assertStepEquivalence(t, sc, 80, 6*time.Minute)
	})
	t.Run("hybrid-12", func(t *testing.T) {
		sc, err := NewHybrid(12, faultyParams(5))
		if err != nil {
			t.Fatal(err)
		}
		assertStepEquivalence(t, sc, 60, 7*time.Minute)
	})
}

// TestFaultSweepWorkerCountInvariance: fault-injected sweeps are a pure
// function of (params, sizes, config), not of how the time axis is chunked
// across workers.
func TestFaultSweepWorkerCountInvariance(t *testing.T) {
	p := faultyParams(11)
	sizes := []int{6, 24}

	covBase, err := CoverageSweep(p, sizes, 4*time.Hour, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ServeConfig{RequestsPerStep: 6, Steps: 5, Horizon: 2 * time.Hour, Seed: 2}
	srvBase, err := ServeSweep(p, sizes, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		cov, err := CoverageSweep(p, sizes, 4*time.Hour, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(covBase, cov) {
			t.Errorf("faulted coverage sweep at %d workers diverged from 1 worker", workers)
		}
		srv, err := ServeSweep(p, sizes, cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(srvBase, srv) {
			t.Errorf("faulted serve sweep at %d workers diverged from 1 worker", workers)
		}
	}
}

// TestFaultRunsAreReproducible: two independently assembled scenarios with
// the same fault seed produce identical coverage; a different seed moves
// the outages.
func TestFaultRunsAreReproducible(t *testing.T) {
	a, err := NewSpaceGround(24, faultyParams(13))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSpaceGround(24, faultyParams(13))
	if err != nil {
		t.Fatal(err)
	}
	resA, err := a.Coverage(6 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := b.Coverage(6 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resA, resB) {
		t.Error("same fault seed produced different coverage results")
	}

	c, err := NewSpaceGround(24, faultyParams(14))
	if err != nil {
		t.Fatal(err)
	}
	resC, err := c.Coverage(6 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(resA, resC) {
		t.Error("different fault seeds produced identical coverage results")
	}
}

// TestFaultDegradesAirGroundCoverage: the HAP architecture covers 100% of
// the window fault-free; with the HAP failing hard it cannot.
func TestFaultDegradesAirGroundCoverage(t *testing.T) {
	clean, err := NewAirGround(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cleanRes, err := clean.Coverage(12 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}

	p := DefaultParams()
	p.Fault = fault.AtIntensity(0.4, 1)
	degraded, err := NewAirGround(p)
	if err != nil {
		t.Fatal(err)
	}
	degRes, err := degraded.Coverage(12 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if degRes.Percent() >= cleanRes.Percent() {
		t.Errorf("40%% platform unavailability left coverage at %.2f%% (clean %.2f%%)",
			degRes.Percent(), cleanRes.Percent())
	}
	if degRes.Percent() <= 0 {
		t.Error("degraded HAP should still cover part of the window")
	}
}

// TestParamsFaultRoundTrip: a non-zero fault block must survive the JSON
// codec exactly (durations are encoded in seconds, so stay on whole
// seconds here), and a zero block must be omitted entirely for corpus
// compatibility.
func TestParamsFaultRoundTrip(t *testing.T) {
	p := DefaultParams()
	p.Fault = fault.Config{
		SatMTBF: 2 * time.Hour, SatMTTR: 10 * time.Minute,
		HAPMTBF: 3 * time.Hour, HAPMTTR: 5 * time.Minute,
		GroundMTBF: 24 * time.Hour, GroundMTTR: time.Minute,
		WeatherP: 0.25, WeatherMeanDuration: 45 * time.Minute,
		WeatherAttenuation: 0.5, Seed: 17, Horizon: 48 * time.Hour,
	}
	var buf bytes.Buffer
	if err := SaveParams(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := LoadParams(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fault != p.Fault {
		t.Errorf("fault block did not round-trip:\ngot  %+v\nwant %+v", got.Fault, p.Fault)
	}

	buf.Reset()
	if err := SaveParams(&buf, DefaultParams()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "fault") {
		t.Error("zero fault config leaked a fault block into the JSON")
	}
	raw, err := LoadParams(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if raw.Fault != (fault.Config{}) {
		t.Errorf("zero fault config came back non-zero: %+v", raw.Fault)
	}
}
