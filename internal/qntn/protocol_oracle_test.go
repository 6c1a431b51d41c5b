package qntn_test

// The entanglement-protocol differential suite: every archetype runs the
// protocol-enabled serve experiment on the pooled fast path (stepped and
// event-driven) and on the scalar oracletest reference — cloned graphs, map
// Dijkstra, verbatim Werner formulas — and all three must be
// reflect.DeepEqual-identical, with faults off and on, plus a worker-count
// invariance sweep anchored to the same reference. It complements the
// formula-level physics anchors in internal/quantum/protocol: those pin the
// closed forms against density matrices, this pins the pipeline — disjoint
// extraction, buffer reuse, draw indexing, distillation ordering — against
// a naive restatement.

import (
	"reflect"
	"testing"
	"time"

	"qntn/internal/qntn"
	"qntn/internal/qntn/oracletest"
	"qntn/internal/quantum/protocol"
)

// protocolOracleConfig is the protocol mix the differential matrix runs:
// lossy swaps so chains fail visibly, a T2 in the regime of multi-hop
// heralding latencies so dephasing moves fidelities, and a purification
// budget that exercises disjoint extraction past the primary route.
func protocolOracleConfig() protocol.Config {
	return protocol.Config{
		MemoryT2:    20 * time.Millisecond,
		SwapSuccess: 0.85,
		PurifyPaths: 3,
		Seed:        5,
	}
}

// TestProtocolMatchesScalarReference is the core protocol differential
// matrix: every archetype, faults off and on, stepped and event-driven
// against the scalar reference. Durations are capped, and the ISL-chain
// archetype's steps (ReferenceSteps), so the reference's per-step
// Algorithm 1 tables and per-request clone-and-delete stay affordable in
// tier-1 time.
func TestProtocolMatchesScalarReference(t *testing.T) {
	totalServed := 0
	for _, arch := range oracletest.Archetypes() {
		arch := arch
		duration := arch.Duration
		if duration > 4*time.Hour {
			duration = 4 * time.Hour
		}
		cfg := referenceServeConfig(arch, duration)
		t.Run(arch.Name, func(t *testing.T) {
			p := arch.Params()
			p.Protocol = protocolOracleConfig()
			want := oracletest.AssertProtocolServeEqual(t, arch.Build, p, cfg)
			totalServed += int(float64(len(want.Metrics.Outcomes)) * want.Metrics.ServedFraction())
		})
		t.Run(arch.Name+"-faults", func(t *testing.T) {
			p := arch.Params()
			p.Fault = oracletest.FaultConfig(11)
			p.Protocol = protocolOracleConfig()
			want := oracletest.AssertProtocolServeEqual(t, arch.Build, p, cfg)
			totalServed += int(float64(len(want.Metrics.Outcomes)) * want.Metrics.ServedFraction())
		})
	}
	if totalServed == 0 {
		t.Fatalf("degenerate matrix: no archetype served a single protocol request")
	}
}

// TestProtocolServeSweepWorkers pins the protocol-enabled serve sweep at 1,
// 2 and 8 workers on both execution paths, and anchors every per-size point
// to the scalar reference — worker-count invariance alone could pass with a
// deterministic bug shared by all counts.
func TestProtocolServeSweepWorkers(t *testing.T) {
	sizes := []int{6, 24}
	cfg := qntn.ServeConfig{RequestsPerStep: 15, Steps: 30, Horizon: 6 * time.Hour, Seed: 3}
	p := qntn.DefaultParams()
	p.Protocol = protocolOracleConfig()
	want, err := qntn.ServeSweep(p, sizes, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range sizes {
		sc, err := qntn.NewSpaceGround(n, p)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := oracletest.ReferenceProtocolServe(sc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want[i].Result, *ref) {
			t.Fatalf("size %d: sweep result diverged from scalar reference\n got: %+v\nwant: %+v", n, want[i].Result, *ref)
		}
	}
	for _, workers := range []int{2, 8} {
		got, err := qntn.ServeSweep(p, sizes, cfg, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: protocol serve sweep not worker-invariant", workers)
		}
	}
	pe := p
	pe.EventDriven = true
	for _, workers := range []int{1, 2, 8} {
		got, err := qntn.ServeSweep(pe, sizes, cfg, workers)
		if err != nil {
			t.Fatalf("event-driven workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("event-driven workers=%d: protocol serve sweep diverged from stepped", workers)
		}
	}
}

// TestProtocolArrivalsDeterministic pins the queued-admission protocol
// path: two identical protocol-enabled RunArrivals runs must agree exactly,
// and enabling the protocol can only reduce the served count (a protocol
// failure leaves the request queued; it never serves anything the
// protocol-off path would not).
func TestProtocolArrivalsDeterministic(t *testing.T) {
	p := qntn.DefaultParams()
	p.Protocol = protocolOracleConfig()
	cfg := qntn.ArrivalConfig{RatePerHour: 60, Horizon: 4 * time.Hour, Seed: 9}
	run := func(p qntn.Params) *qntn.ArrivalResult {
		sc, err := qntn.NewSpaceGround(24, p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sc.RunArrivals(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first, second := run(p), run(p)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("protocol arrivals not deterministic\nfirst: %+v\nsecond: %+v", first, second)
	}
	off := run(qntn.DefaultParams())
	if first.Served > off.Served {
		t.Fatalf("protocol-on served %d > protocol-off %d — failures must only defer requests", first.Served, off.Served)
	}
	if first.Arrivals != off.Arrivals {
		t.Fatalf("protocol toggled the arrival stream: %d vs %d", first.Arrivals, off.Arrivals)
	}
}
