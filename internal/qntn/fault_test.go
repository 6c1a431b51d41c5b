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

// TestFaultDisabledLeavesModelUndecorated: a zero fault config must not
// install the decorator at all — fault-free runs stay byte-identical to the
// baseline by construction, not by equivalence of two code paths.
func TestFaultDisabledLeavesModelUndecorated(t *testing.T) {
	sc, err := NewSpaceGround(6, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, wrapped := sc.Net.Model().(*fault.Model); wrapped {
		t.Fatal("zero fault config installed the fault decorator")
	}
	fsc, err := NewSpaceGround(6, faultyParams(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, wrapped := fsc.Net.Model().(*fault.Model); !wrapped {
		t.Fatal("enabled fault config did not install the fault decorator")
	}
}

// TestFaultIdleDecoratorIsIdentity: even when the decorator IS installed
// but the schedule contains no outages and no weather, every graph must be
// DeepEqual to the undecorated baseline — the wrapper adds gating, never
// physics.
func TestFaultIdleDecoratorIsIdentity(t *testing.T) {
	p := DefaultParams()
	base, err := NewSpaceGround(12, p)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := NewSpaceGround(12, p)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := fault.NewSchedule(fault.Config{Seed: 9}, wrapped.Net.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	wrapped.Net.SetModel(fault.NewModel(scenarioModel{wrapped}, sched, p.TransmissivityThreshold))
	for s := 0; s < 40; s++ {
		at := time.Duration(s) * 4 * time.Minute
		want, err := base.Graph(at)
		if err != nil {
			t.Fatal(err)
		}
		got, err := wrapped.Graph(at)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("t=%v: idle fault decorator changed the graph\ngot:  %v\nwant: %v",
				at, edgeMap(got), edgeMap(want))
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
