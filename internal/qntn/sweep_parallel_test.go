package qntn

import (
	"reflect"
	"testing"
	"time"
)

// installPropagationHook counts catalog propagations for the duration of a
// test. Tests using it must not run in parallel with each other.
func installPropagationHook(t *testing.T) *[]int {
	t.Helper()
	var calls []int
	propagationHook = func(n int) { calls = append(calls, n) }
	t.Cleanup(func() { propagationHook = nil })
	return &calls
}

func fastSweepParams() Params {
	p := DefaultParams()
	p.Turbulence = nil // keep the physics cheap; determinism is what's under test
	p.StepInterval = 5 * time.Minute
	return p
}

// TestServeSweepMatchesSequentialRuns is the tentpole equivalence claim for
// the serve sweep: the cached, parallel fan-out must reproduce — field for
// field — what a fresh scenario per size produces sequentially.
func TestServeSweepMatchesSequentialRuns(t *testing.T) {
	p := fastSweepParams()
	cfg := ServeConfig{RequestsPerStep: 8, Steps: 6, Horizon: 2 * time.Hour, Seed: 11}
	sizes := []int{6, 18, 36}

	got, err := ServeSweep(p, sizes, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range sizes {
		sc, err := NewSpaceGround(n, p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sc.RunServe(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i].Result, *want) {
			t.Errorf("size %d: parallel sweep diverged from sequential RunServe\n got %+v\nwant %+v", n, got[i].Result, *want)
		}
	}
}

// TestServeSweepWorkerCountInvariance: byte-identical results at 1, 2, and
// 8 workers — the determinism contract of the runner fan-out.
func TestServeSweepWorkerCountInvariance(t *testing.T) {
	p := fastSweepParams()
	cfg := ServeConfig{RequestsPerStep: 8, Steps: 6, Horizon: 2 * time.Hour, Seed: 3}
	sizes := []int{6, 12, 24, 48}

	base, err := ServeSweep(p, sizes, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := ServeSweep(p, sizes, cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Errorf("serve sweep at %d workers diverged from 1 worker", workers)
		}
	}
}

// TestCoverageSweepWorkerCountInvariance: the chunked time axis must merge
// to identical CoverageResults (including interval lists) at any
// parallelism.
func TestCoverageSweepWorkerCountInvariance(t *testing.T) {
	p := fastSweepParams()
	sizes := []int{6, 30, 60}
	duration := 6 * time.Hour

	base, err := CoverageSweep(p, sizes, duration, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := CoverageSweep(p, sizes, duration, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Errorf("coverage sweep at %d workers diverged from 1 worker", workers)
		}
	}
}

// TestServeSweepPropagatesOnce is the regression test for the re-propagation
// bug: an n-size sweep must propagate the catalog exactly once, at the
// largest requested size, instead of once per size.
func TestServeSweepPropagatesOnce(t *testing.T) {
	calls := installPropagationHook(t)
	p := fastSweepParams()
	cfg := ServeConfig{RequestsPerStep: 4, Steps: 3, Horizon: time.Hour, Seed: 1}

	if _, err := ServeSweep(p, []int{6, 12, 24}, cfg, 2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*calls, []int{24}) {
		t.Fatalf("propagation passes = %v, want exactly one at the max size [24]", *calls)
	}
}

// TestCoverageSweepPropagatesOnce: same invariant for the coverage sweep.
func TestCoverageSweepPropagatesOnce(t *testing.T) {
	calls := installPropagationHook(t)
	p := fastSweepParams()

	if _, err := CoverageSweep(p, []int{6, 12, 18}, 2*time.Hour, 2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*calls, []int{18}) {
		t.Fatalf("propagation passes = %v, want exactly one at the max size [18]", *calls)
	}
}

// TestCachedSatellitePositions: at cached sample times the cache must return
// the propagator's own output bit for bit, and at any other time it must
// fall back to direct propagation.
func TestCachedSatellitePositions(t *testing.T) {
	p := DefaultParams()
	times := []time.Duration{0, 10 * time.Minute, 10 * time.Minute, time.Hour}
	cache, err := NewEphemerisCache(12, p, times)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewSpaceGround(12, p)
	if err != nil {
		t.Fatal(err)
	}
	probe := append(times, 17*time.Minute, 3*time.Hour) // last two miss the cache
	for i, node := range cache.sats {
		ref := sc.relays[i]
		if node.ID() != ref.ID() {
			t.Fatalf("satellite %d: cached ID %q, direct ID %q", i, node.ID(), ref.ID())
		}
		for _, at := range probe {
			got, want := node.PositionAt(at), ref.PositionAt(at)
			if got != want {
				t.Fatalf("satellite %s at %v: cached %v, direct %v", node.ID(), at, got, want)
			}
		}
	}
}

// TestEphemerisCacheScenarioBounds rejects sizes outside the cached
// catalog and sizes the paper constellation rule rejects, as
// NewSpaceGround does.
func TestEphemerisCacheScenarioBounds(t *testing.T) {
	cache, err := NewEphemerisCache(12, DefaultParams(), []time.Duration{0})
	if err != nil {
		t.Fatal(err)
	}
	if got := cache.MaxSatellites(); got != 12 {
		t.Fatalf("MaxSatellites = %d, want 12", got)
	}
	for _, n := range []int{0, -1, 13, 18, 7, 1, 11} {
		if _, err := cache.Scenario(n); err == nil {
			t.Errorf("Scenario(%d) accepted out-of-range size", n)
		}
	}
	if _, err := cache.Scenario(12); err != nil {
		t.Errorf("Scenario(12) rejected in-range size: %v", err)
	}
}
