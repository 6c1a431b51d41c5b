package main

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"qntn/internal/netsim"
	"qntn/internal/qntn"
	"qntn/internal/quantum/protocol"
	"qntn/internal/telemetry"
)

// serveVariant maps a seed to the serve and protocol seed it selects.
func serveVariant(seed int64) int64 { return ((seed%16)+16)%16 + 1 }

// servePin extracts the pinned fields of a serve result.
func servePin(res *qntn.ServeResult) pin {
	served := 0
	for _, o := range res.Metrics.Outcomes {
		if o.Served {
			served++
		}
	}
	return pin{Served: served, MeanFidelity: res.MeanFidelity}
}

// samePin compares pins exactly in their counts and to 1e-12 relative in
// their floating-point fields.
func samePin(a, b pin) bool {
	near := func(x, y float64) bool { return math.Abs(x-y) <= 1e-12*math.Max(math.Abs(x), math.Abs(y)) }
	return a.Steps == b.Steps && a.CoveredSteps == b.CoveredSteps && a.Intervals == b.Intervals &&
		a.Served == b.Served && near(a.Percent, b.Percent) && near(a.MeanFidelity, b.MeanFidelity)
}

// serveBench is serve108-protocol: RunServe with the paper's workload on
// SpaceGround-108 with the protocol layer on, checked against the served
// count and mean fidelity pinned for the seed.
type serveBench struct {
	variant int64
	cfg     qntn.ServeConfig
	proto   protocol.Config
	want    pin
	pinned  bool
	sc      *qntn.Scenario
	scenS   []float64
	// lastAlloc is the bytes the last pass allocated.
	lastAlloc uint64
}

func serveProtocol(pc *protoConfig, seed int64) (protocol.Config, error) {
	if pc == nil {
		return protocol.Config{}, fmt.Errorf("serve108-protocol: workloads.json has no protocol settings")
	}
	t2, err := time.ParseDuration(pc.MemoryT2)
	if err != nil {
		return protocol.Config{}, fmt.Errorf("serve108-protocol: memory_t2: %w", err)
	}
	return protocol.Config{MemoryT2: t2, SwapSuccess: pc.SwapSuccess, PurifyPaths: pc.PurifyPaths, Seed: seed}, nil
}

func newServeBench(cfg *config, seed int64) (*serveBench, error) {
	doc := cfg.Workloads["serve108-protocol"]
	v := serveVariant(seed)
	pc, err := serveProtocol(doc.Protocol, v)
	if err != nil {
		return nil, err
	}
	sc := qntn.DefaultServeConfig()
	sc.RequestsPerStep, sc.Steps, sc.Seed = doc.Requests, doc.Steps, v
	w, ok := cfg.Pins["serve108-protocol"][strconv.FormatInt(v, 10)]
	return &serveBench{variant: v, cfg: sc, proto: pc, want: w, pinned: ok}, nil
}

func (b *serveBench) params() qntn.Params {
	p := qntn.DefaultParams()
	p.Protocol = b.proto
	return p
}

func (b *serveBench) setup() error {
	t0 := time.Now()
	sc, err := qntn.NewSpaceGround(108, b.params())
	if err != nil {
		return err
	}
	b.scenS = append(b.scenS, time.Since(t0).Seconds())
	b.sc = sc
	_, err = sc.RunServe(b.cfg)
	return err
}

func (b *serveBench) close() {}

func (b *serveBench) pass(r *result) (time.Duration, bool) {
	r.attempted++
	a0, t0 := allocated(), time.Now()
	res, err := b.sc.RunServe(b.cfg)
	d := time.Since(t0)
	b.lastAlloc = allocated() - a0
	if err != nil {
		r.fail("serve: %v", err)
		return d, false
	}
	if got := servePin(res); !b.pinned || !samePin(got, b.want) {
		r.fail("serve seed %d: got %+v, pinned %+v (pinned=%v)", b.variant, got, b.want, b.pinned)
	}
	return d, true
}

func (b *serveBench) measure(deadline time.Time, r *result) {
	for time.Now().Before(deadline) {
		if d, ok := b.pass(r); ok {
			r.ops = append(r.ops, opSample{latency: d, ttfb: d, busy: d,
				steps: b.cfg.Steps, requests: b.cfg.Steps * b.cfg.RequestsPerStep, alloc: b.lastAlloc})
		}
	}
}

// traced alternates three calls per pass: the untraced protocol-on
// RunServe, the same run with the protocol off, and a traced replay of the
// protocol-off run that also extracts the protocol's disjoint routes.
// protocol.busy_s is the on−off difference; the protocol's draw counts come
// from one telemetry-instrumented RunServe.
func (b *serveBench) traced(deadline time.Time, r *result, rec *recorder) {
	off, err := qntn.NewSpaceGround(108, qntn.DefaultParams())
	if err != nil {
		r.attempted++
		r.fail("serve: %v", err)
		return
	}
	want, err := off.RunServe(b.cfg)
	if err != nil {
		r.attempted++
		r.fail("serve protocol off: %v", err)
		return
	}
	wantServed := servePin(want).Served
	b.protocolCounts(r)

	var protoBusy, overhead, unattributed, rounds []float64
	var st serveStats
	for pass := int64(0); time.Now().Before(deadline); pass++ {
		dOn, ok := b.pass(r)
		if !ok {
			continue
		}
		t0 := time.Now()
		if _, err := off.RunServe(b.cfg); err != nil {
			r.fail("serve protocol off: %v", err)
			continue
		}
		dOff := time.Since(t0)
		protoBusy = append(protoBusy, (dOn - dOff).Seconds())

		r.attempted++
		root := rec.begin("pass", noParent, pass)
		var ps serveStats
		err := replayServe(off, b.cfg, b.proto.Paths(), rec, root, &ps)
		rec.end(root)
		if err != nil {
			r.fail("serve replay: %v", err)
			continue
		}
		if ps.served != wantServed {
			r.fail("serve replay served %d, RunServe %d", ps.served, wantServed)
		}
		rounds = append(rounds, float64(ps.bfRounds)/float64(ps.topo.steps))
		st = ps
		overhead = append(overhead, dOff.Seconds())
	}
	passes := rec.passes()
	for i, p := range passes {
		if i < len(overhead) {
			// The disjoint extraction is extra work the protocol-off run
			// does not do, so it is left out of the traced wall time.
			overhead[i] = (p.wall-p.self["protocol.disjoint"])/overhead[i] - 1
		}
		unattributed = append(unattributed, p.unattributed())
	}
	overhead = overhead[:min(len(overhead), len(passes))]
	setBusy(r, passes, map[string]string{
		"ephemeris": "ephemeris.busy_s", "candidates": "candidates.busy_s", "physics": "physics.busy_s",
		"graph": "graph.busy_s", "routing.bf": "routing.bf_busy_s", "routing.path": "routing.path_busy_s",
		"protocol.disjoint": "protocol.disjoint_busy_s",
	})
	setTopoCounts(r, &st.topo, len(off.Net.ByKind(netsim.Satellite)))
	r.setLayer("routing.bf_rounds", rounds...)
	r.setLayer("protocol.busy_s", protoBusy...)
	r.setLayer("setup.scenario_s", b.scenS...)
	r.setLayer("trace.unattributed_frac", unattributed...)
	r.setLayer("trace.overhead_frac", overhead...)
}

// protocolCounts runs RunServe once on an instrumented scenario and records
// the protocol layer's draw counts per run.
func (b *serveBench) protocolCounts(r *result) {
	r.attempted++
	sc, err := qntn.NewSpaceGround(108, b.params())
	if err != nil {
		r.fail("serve: %v", err)
		return
	}
	col := &telemetry.Collector{Registry: telemetry.NewRegistry()}
	sc.Instrument(col)
	res, err := sc.RunServe(b.cfg)
	if err != nil {
		r.fail("serve instrumented: %v", err)
		return
	}
	if got := servePin(res); !samePin(got, b.want) {
		r.fail("serve instrumented: got %+v, pinned %+v", got, b.want)
	}
	reg := col.Registry
	swaps := float64(reg.Counter("protocol_swaps_total").Value())
	fails := float64(reg.Counter("protocol_swap_failures_total").Value())
	rounds := float64(reg.Counter("protocol_purify_rounds_total").Value())
	accepted := float64(reg.Counter("protocol_purify_accepted_total").Value())
	r.setLayer("protocol.swaps", swaps)
	if swaps > 0 {
		r.setLayer("protocol.swap_fail_frac", fails/swaps)
	}
	if rounds > 0 {
		r.setLayer("protocol.purify_accept_frac", accepted/rounds)
	}
}
