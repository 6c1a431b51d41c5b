package qntn

import (
	"reflect"
	"testing"
	"time"

	"qntn/internal/routing"
)

// edgeSet flattens a graph's edges into an ID-keyed map, so graphs built
// with different node insertion histories compare by content.
func edgeSet(g *routing.Graph) map[[2]string]float64 {
	ids := g.Nodes()
	m := make(map[[2]string]float64)
	g.EachEdge(func(i, j int, eta float64) {
		a, b := ids[i], ids[j]
		if a > b {
			a, b = b, a
		}
		m[[2]string{a, b}] = eta
	})
	return m
}

// TestEventEngineDeltaMatchesRebuild is the delta-application regression:
// after an arbitrary event sequence — window opens and closes, platform
// outages, weather spans, darkness boundaries — the engine's incrementally
// maintained graph must equal a from-scratch GraphInto rebuild at every
// step, edge for edge and bit for bit in the transmissivities.
func TestEventEngineDeltaMatchesRebuild(t *testing.T) {
	p := faultyParams(5)
	p.RequireDarkness = true
	sc, err := NewSpaceGround(12, p)
	if err != nil {
		t.Fatal(err)
	}
	duration := 8 * time.Hour
	grid := coverageGrid(p.StepInterval, duration)
	eng, err := sc.newEventEngine(grid)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ref := routing.NewGraph()
	for k := 0; k < grid.steps; k++ {
		if err := eng.runStep(k); err != nil {
			t.Fatal(err)
		}
		if err := sc.GraphInto(ref, grid.at(k), nil); err != nil {
			t.Fatal(err)
		}
		got, want := edgeSet(eng.g), edgeSet(ref)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (t=%v): delta-applied graph diverged from rebuild\n got %d edges: %v\nwant %d edges: %v",
				k, grid.at(k), len(got), got, len(want), want)
		}
	}
	if eng.g.NumNodes() != ref.NumNodes() {
		t.Fatalf("node count diverged: engine %d, rebuild %d", eng.g.NumNodes(), ref.NumNodes())
	}
}

// TestStepGapSharedDefinition pins the single step-gap definition all three
// serve drivers (stepped, event-driven, DES) derive their sample instants
// from, including the StepInterval fallback when Horizon/Steps underflows.
func TestStepGapSharedDefinition(t *testing.T) {
	p := DefaultParams()
	cases := []struct {
		name string
		cfg  ServeConfig
		gap  time.Duration
	}{
		{"exact division", ServeConfig{RequestsPerStep: 1, Steps: 10, Horizon: 300 * time.Second}, 30 * time.Second},
		{"default horizon", ServeConfig{RequestsPerStep: 1, Steps: 24}, time.Hour},
		{"underflow fallback", ServeConfig{RequestsPerStep: 1, Steps: 10, Horizon: 5 * time.Nanosecond}, p.StepInterval},
	}
	for _, c := range cases {
		if gap := c.cfg.stepGap(p); gap != c.gap {
			t.Errorf("%s: stepGap = %v, want %v", c.name, gap, c.gap)
		}
		times := c.cfg.SampleTimes(p)
		if len(times) != c.cfg.Steps {
			t.Errorf("%s: %d sample times, want %d", c.name, len(times), c.cfg.Steps)
		}
		for k, at := range times {
			if at != time.Duration(k)*c.gap {
				t.Errorf("%s: sample %d at %v, want %v", c.name, k, at, time.Duration(k)*c.gap)
			}
		}
	}
}

// TestServeDESSamplesAllSteps is the off-by-one drift regression: when the
// Horizon/Steps division underflows and the StepInterval fallback pushes
// the sample instants past the horizon, every driver must still evaluate
// all Steps samples — RunServeDES once derived the gap locally and silently
// dropped every sample beyond the horizon.
func TestServeDESSamplesAllSteps(t *testing.T) {
	p := fastSweepParams()
	sc, err := NewSpaceGround(6, p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ServeConfig{RequestsPerStep: 2, Steps: 10, Horizon: 5 * time.Nanosecond, Seed: 1}
	wantOutcomes := cfg.RequestsPerStep * cfg.Steps
	times := cfg.SampleTimes(p)

	des, err := sc.RunServeDES(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(des.Metrics.Outcomes); got != wantOutcomes {
		t.Fatalf("RunServeDES recorded %d outcomes, want %d (samples dropped past the horizon)", got, wantOutcomes)
	}
	serve, err := sc.RunServe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(serve.Metrics.Outcomes); got != wantOutcomes {
		t.Fatalf("RunServe recorded %d outcomes, want %d", got, wantOutcomes)
	}
	for i, out := range serve.Metrics.Outcomes {
		if at := times[i/cfg.RequestsPerStep]; out.At != at {
			t.Fatalf("RunServe outcome %d at %v, want sample instant %v", i, out.At, at)
		}
	}
	for i, out := range des.Metrics.Outcomes {
		if at := times[i/cfg.RequestsPerStep]; out.At != at {
			t.Fatalf("RunServeDES outcome %d at %v, want sample instant %v", i, out.At, at)
		}
	}

	// The event-driven path derives its grid from the same definition and
	// must reproduce the stepped result on the degenerate horizon too.
	pe := p
	pe.EventDriven = true
	sce, err := NewSpaceGround(6, pe)
	if err != nil {
		t.Fatal(err)
	}
	gotE, err := sce.RunServe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotE, serve) {
		t.Fatalf("event-driven serve diverged on the fallback grid\n got: %+v\nwant: %+v", gotE, serve)
	}
}
