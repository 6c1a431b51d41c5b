package qntn

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"qntn/internal/fault"
	"qntn/internal/netsim"
	"qntn/internal/routing"
	"qntn/internal/telemetry"
)

func telemetryTestParams() Params {
	p := DefaultParams()
	p.Turbulence = nil // keep the physics cheap; instrumentation is what's under test
	p.StepInterval = 5 * time.Minute
	return p
}

func counterValue(t *testing.T, c *telemetry.Collector, name string) uint64 {
	t.Helper()
	return c.Registry.Counter(name).Value()
}

// TestInstrumentedServeMatchesUninstrumented is the tentpole equivalence
// claim: attaching a collector must not perturb a single result bit, and the
// counters/events it fills must be internally consistent with the run.
func TestInstrumentedServeMatchesUninstrumented(t *testing.T) {
	p := telemetryTestParams()
	cfg := ServeConfig{RequestsPerStep: 6, Steps: 5, Horizon: time.Hour, Seed: 9}

	plain, err := NewSpaceGround(12, p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.RunServe(cfg)
	if err != nil {
		t.Fatal(err)
	}

	pt := p
	col := telemetry.NewCollector()
	pt.Telemetry = col
	sc, err := NewSpaceGround(12, pt)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Telemetry() != col {
		t.Fatal("scenario assembled from instrumented params is not instrumented")
	}
	got, err := sc.RunServe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("instrumented serve diverged from uninstrumented:\n%+v\nvs\n%+v", got, want)
	}

	steps := uint64(cfg.Steps)
	if v := counterValue(t, col, "snapshot_steps_total"); v != steps {
		t.Errorf("snapshot_steps_total = %d, want %d", v, steps)
	}
	served := counterValue(t, col, "requests_served_total")
	dropped := counterValue(t, col, "requests_dropped_total")
	if served+dropped != steps*uint64(cfg.RequestsPerStep) {
		t.Errorf("served %d + dropped %d != %d requests", served, dropped, steps*uint64(cfg.RequestsPerStep))
	}
	wantServed := uint64(float64(steps*uint64(cfg.RequestsPerStep)) * want.ServedPercent / 100)
	if served != wantServed {
		t.Errorf("requests_served_total = %d, ServedPercent implies %d", served, wantServed)
	}
	fid := col.Registry.Histogram("served_fidelity", nil)
	if fid.Count() != served {
		t.Errorf("served_fidelity count %d != requests_served_total %d", fid.Count(), served)
	}

	// Every step emits exactly one event with the full snapshot accounting.
	events := col.Events.Events()
	if len(events) != cfg.Steps {
		t.Fatalf("%d events, want %d", len(events), cfg.Steps)
	}
	n := len(sc.Net.Nodes())
	wantPairs := int64(n * (n - 1) / 2)
	var evServed, evDropped, evTrees, evSettled int64
	routed := 0
	for i, e := range events {
		if e.Label != "serve/space-ground/12/seed=9" {
			t.Fatalf("event label %q", e.Label)
		}
		if e.Step != i {
			t.Fatalf("event %d has step %d", i, e.Step)
		}
		if e.PairsEvaluated != wantPairs {
			t.Fatalf("event %d: pairs %d, want %d", i, e.PairsEvaluated, wantPairs)
		}
		if e.HorizonRejects+e.RangeRejects > e.PairsEvaluated {
			t.Fatalf("event %d: more prefilter rejects than pairs: %+v", i, e)
		}
		if e.LinksAdmitted <= 0 {
			t.Fatalf("event %d admitted no links", i)
		}
		// A served request's path comes from its source's tree, which
		// settles at least its two endpoints; every request starts at most
		// one tree.
		if e.Served > 0 {
			routed++
			if e.TreesBuilt < 1 || e.NodesSettled < 2 {
				t.Fatalf("event %d served %d requests from %d trees settling %d nodes", i, e.Served, e.TreesBuilt, e.NodesSettled)
			}
		}
		if e.Arrivals != int64(cfg.RequestsPerStep) {
			t.Fatalf("event %d counts %d arrivals, want the batch of %d", i, e.Arrivals, cfg.RequestsPerStep)
		}
		if e.TreesBuilt > int64(cfg.RequestsPerStep) {
			t.Fatalf("event %d: %d trees for %d requests", i, e.TreesBuilt, cfg.RequestsPerStep)
		}
		evServed += e.Served
		evDropped += e.Dropped
		evTrees += e.TreesBuilt
		evSettled += e.NodesSettled
	}
	if uint64(evServed) != served || uint64(evDropped) != dropped {
		t.Errorf("event served/dropped %d/%d disagree with counters %d/%d", evServed, evDropped, served, dropped)
	}
	if routed == 0 {
		t.Fatal("no step served a request; the routing counters went unchecked")
	}
	if trees, settled := counterValue(t, col, "routing_trees_total"), counterValue(t, col, "routing_settled_nodes_total"); uint64(evTrees) != trees || uint64(evSettled) != settled {
		t.Errorf("event trees/settled %d/%d disagree with counters %d/%d", evTrees, evSettled, trees, settled)
	}
}

// TestAdmissionRecordsRoutingTelemetry: the arrival-driven request drivers
// run on the same admission core as RunServe, so an instrumented run must
// count the routing work it did, with the routing counters equal to the
// sums over its per-step events, and those events must account for every
// request the result reports.
func TestAdmissionRecordsRoutingTelemetry(t *testing.T) {
	type totals struct{ arrivals, served, steps int }
	for _, tc := range []struct {
		name string
		run  func(sc *Scenario) (totals, error)
	}{
		{"arrivals", func(sc *Scenario) (totals, error) {
			res, err := sc.RunArrivals(ArrivalConfig{RatePerHour: 400, Horizon: 20 * time.Minute, Seed: 3})
			if err != nil {
				return totals{}, err
			}
			return totals{res.Arrivals, res.Served, res.EventsProcessed - res.Arrivals}, nil
		}},
		{"traffic", func(sc *Scenario) (totals, error) {
			res, err := sc.RunTraffic(TrafficConfig{RatePerHourPerSite: 20, Horizon: 20 * time.Minute, Seed: 3})
			if err != nil {
				return totals{}, err
			}
			return totals{res.Arrivals, res.Served, res.Steps}, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := telemetryTestParams()
			col := telemetry.NewCollector()
			p.Telemetry = col
			sc, err := NewSpaceGround(24, p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := tc.run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if want.served == 0 {
				t.Fatal("nothing served; the routing counters go unchecked")
			}
			events := col.Events.Events()
			if len(events) != want.steps {
				t.Fatalf("%d events, want one per topology update (%d)", len(events), want.steps)
			}
			var evTrees, evSettled, evArrivals, evServed int64
			for _, e := range events {
				if !strings.HasPrefix(e.Label, tc.name+"/space-ground/24/seed=3") {
					t.Fatalf("event label %q", e.Label)
				}
				evTrees += e.TreesBuilt
				evSettled += e.NodesSettled
				evArrivals += e.Arrivals
				evServed += e.Served
			}
			trees := counterValue(t, col, "routing_trees_total")
			settled := counterValue(t, col, "routing_settled_nodes_total")
			if trees == 0 || settled == 0 {
				t.Fatalf("routing_trees_total %d, routing_settled_nodes_total %d after serving %d requests", trees, settled, want.served)
			}
			if uint64(evTrees) != trees || uint64(evSettled) != settled {
				t.Errorf("event trees/settled %d/%d disagree with counters %d/%d", evTrees, evSettled, trees, settled)
			}
			if evArrivals != int64(want.arrivals) || evServed != int64(want.served) {
				t.Errorf("events count arrivals %d, served %d; result %d, %d", evArrivals, evServed, want.arrivals, want.served)
			}
		})
	}
}

// TestInstrumentedCoverageMatchesUninstrumented: same claim for Coverage.
func TestInstrumentedCoverageMatchesUninstrumented(t *testing.T) {
	p := telemetryTestParams()
	const horizon = 2 * time.Hour

	plain, err := NewSpaceGround(18, p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Coverage(horizon)
	if err != nil {
		t.Fatal(err)
	}

	pt := p
	col := telemetry.NewCollector()
	pt.Telemetry = col
	sc, err := NewSpaceGround(18, pt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sc.Coverage(horizon)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("instrumented coverage diverged:\n%+v\nvs\n%+v", got, want)
	}

	if v := counterValue(t, col, "coverage_steps_total"); v != uint64(want.Steps) {
		t.Errorf("coverage_steps_total = %d, want %d", v, want.Steps)
	}
	if v := counterValue(t, col, "coverage_covered_steps_total"); v != uint64(want.CoveredSteps) {
		t.Errorf("coverage_covered_steps_total = %d, want %d", v, want.CoveredSteps)
	}
	events := col.Events.Events()
	if len(events) != want.Steps {
		t.Fatalf("%d events, want %d", len(events), want.Steps)
	}
	coveredEvents := 0
	for _, e := range events {
		if e.Label != "coverage/space-ground/18" {
			t.Fatalf("event label %q", e.Label)
		}
		if e.Covered {
			coveredEvents++
		}
	}
	if coveredEvents != want.CoveredSteps {
		t.Errorf("%d covered events, result says %d covered steps", coveredEvents, want.CoveredSteps)
	}
}

// telemetryDump flattens a collector into comparable byte blobs (metrics
// text + NDJSON event stream); wall-clock never enters either.
func telemetryDump(t *testing.T, col *telemetry.Collector) (string, string) {
	t.Helper()
	var metrics, events bytes.Buffer
	if err := col.Registry.WriteText(&metrics); err != nil {
		t.Fatal(err)
	}
	if err := col.Events.WriteNDJSON(&events); err != nil {
		t.Fatal(err)
	}
	return metrics.String(), events.String()
}

// TestServeSweepTelemetryWorkerInvariance: the merged telemetry of a
// parallel serve sweep — metrics and the sorted event stream — must be
// byte-identical at 1, 2 and 8 workers, alongside the results themselves.
func TestServeSweepTelemetryWorkerInvariance(t *testing.T) {
	p := telemetryTestParams()
	cfg := ServeConfig{RequestsPerStep: 5, Steps: 4, Horizon: time.Hour, Seed: 3}
	sizes := []int{6, 12, 24}

	var baseMetrics, baseEvents string
	var basePoints []ServePoint
	for i, workers := range []int{1, 2, 8} {
		col := telemetry.NewCollector()
		pw := p
		pw.Telemetry = col
		points, err := ServeSweep(pw, sizes, cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		metrics, events := telemetryDump(t, col)
		if events == "" {
			t.Fatal("sweep recorded no events")
		}
		if i == 0 {
			baseMetrics, baseEvents, basePoints = metrics, events, points
			continue
		}
		if !reflect.DeepEqual(points, basePoints) {
			t.Errorf("results at %d workers diverged", workers)
		}
		if metrics != baseMetrics {
			t.Errorf("metrics at %d workers diverged:\n%s\nvs\n%s", workers, metrics, baseMetrics)
		}
		if events != baseEvents {
			t.Errorf("event stream at %d workers diverged", workers)
		}
	}
}

// TestCoverageSweepTelemetryWorkerInvariance: same contract for the chunked
// coverage sweep (the horizon spans multiple 32-step chunks).
func TestCoverageSweepTelemetryWorkerInvariance(t *testing.T) {
	p := telemetryTestParams()
	sizes := []int{6, 18}
	duration := 3 * time.Hour // 36 five-minute steps -> 2 chunks

	var baseMetrics, baseEvents string
	for i, workers := range []int{1, 2, 8} {
		col := telemetry.NewCollector()
		pw := p
		pw.Telemetry = col
		if _, err := CoverageSweep(pw, sizes, duration, workers); err != nil {
			t.Fatal(err)
		}
		metrics, events := telemetryDump(t, col)
		if events == "" {
			t.Fatal("sweep recorded no events")
		}
		if i == 0 {
			baseMetrics, baseEvents = metrics, events
			continue
		}
		if metrics != baseMetrics {
			t.Errorf("metrics at %d workers diverged:\n%s\nvs\n%s", workers, metrics, baseMetrics)
		}
		if events != baseEvents {
			t.Errorf("event stream at %d workers diverged", workers)
		}
	}
}

// snapshotCounters names the eight per-snapshot counters GraphInto flushes.
var snapshotCounters = []string{
	"snapshot_steps_total",
	"pairs_evaluated_total",
	"links_admitted_total",
	"horizon_prefilter_rejects_total",
	"range_prefilter_rejects_total",
	"index_culled_pairs_total",
	"fault_node_down_steps_total",
	"fault_weather_steps_total",
}

// eventSnapshotSums sums the snapshot fields of events in snapshotCounters'
// order: one step per event, then the per-step counts.
func eventSnapshotSums(events []telemetry.Event) []uint64 {
	sums := make([]uint64, len(snapshotCounters))
	for _, e := range events {
		sums[0]++
		sums[1] += uint64(e.PairsEvaluated)
		sums[2] += uint64(e.LinksAdmitted)
		sums[3] += uint64(e.HorizonRejects)
		sums[4] += uint64(e.RangeRejects)
		sums[5] += uint64(e.IndexCulled)
		sums[6] += uint64(e.NodesDown)
		if e.Weather {
			sums[7]++
		}
	}
	return sums
}

// TestFaultTelemetry: a faulted run must surface outages and weather in both
// the counters and the event stream, and still match the uninstrumented
// faulted run bit for bit. Every per-step loop records one event per
// snapshot it takes, so each of the eight snapshot counters must equal the
// sum of its events' field, whichever run took the snapshots.
func TestFaultTelemetry(t *testing.T) {
	p := telemetryTestParams()
	p.Fault = fault.Config{
		SatMTBF:  2 * time.Hour,
		SatMTTR:  time.Hour,
		WeatherP: 0.4,
		Seed:     5,
	}
	cfg := ServeConfig{RequestsPerStep: 5, Steps: 8, Horizon: 6 * time.Hour, Seed: 2}

	plain, err := NewSpaceGround(24, p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.RunServe(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// instrumented runs fn on a SpaceGround-24 scenario built from p with a
	// fresh collector attached, and returns the collector.
	instrumented := func(t *testing.T, fn func(p Params, sc *Scenario) error) *telemetry.Collector {
		t.Helper()
		pt := p
		col := telemetry.NewCollector()
		pt.Telemetry = col
		sc, err := NewSpaceGround(24, pt)
		if err != nil {
			t.Fatal(err)
		}
		if err := fn(pt, sc); err != nil {
			t.Fatal(err)
		}
		return col
	}

	for _, tc := range []struct {
		name string
		run  func(p Params, sc *Scenario) error
	}{
		{"RunServe", func(_ Params, sc *Scenario) error {
			got, err := sc.RunServe(cfg)
			if err == nil && !reflect.DeepEqual(got, want) {
				t.Error("instrumented faulted serve diverged from uninstrumented")
			}
			return err
		}},
		{"Coverage", func(_ Params, sc *Scenario) error {
			_, err := sc.Coverage(3 * time.Hour)
			return err
		}},
		{"RunTraffic", func(_ Params, sc *Scenario) error {
			_, err := sc.RunTraffic(TrafficConfig{RatePerHourPerSite: 4, Horizon: 3 * time.Hour, Seed: 3})
			return err
		}},
		{"CoverageSweep", func(p Params, _ *Scenario) error {
			_, err := CoverageSweep(p, []int{6, 24}, 3*time.Hour, 2)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			col := instrumented(t, tc.run)
			events := col.Events.Events()
			if len(events) == 0 {
				t.Fatal("no events recorded")
			}
			sums := eventSnapshotSums(events)
			for i, name := range snapshotCounters {
				if got := counterValue(t, col, name); got != sums[i] {
					t.Errorf("%s = %d, events sum to %d", name, got, sums[i])
				}
			}
			if sums[6] == 0 && sums[7] == 0 {
				t.Error("fault injection left no telemetry trace")
			}
			if sums[1] == 0 || sums[2] == 0 || sums[5] == 0 {
				t.Errorf("pairs, links or index culls never counted: %v", sums)
			}
		})
	}

	// Snapshots outside the per-step event loops count too.
	var detail *CoverageDetail
	col := instrumented(t, func(_ Params, sc *Scenario) (err error) {
		detail, err = sc.DetailedCoverage(3 * time.Hour)
		return err
	})
	if got := counterValue(t, col, "snapshot_steps_total"); got != uint64(detail.All.Steps) {
		t.Errorf("DetailedCoverage: snapshot_steps_total = %d, want %d", got, detail.All.Steps)
	}
	col = instrumented(t, func(_ Params, sc *Scenario) error {
		_, err := sc.Graph(time.Hour)
		return err
	})
	if got := counterValue(t, col, "snapshot_steps_total"); got != 1 {
		t.Errorf("Graph: snapshot_steps_total = %d, want 1", got)
	}
}

// TestSnapshotZeroAllocsUninstrumented pins the "zero overhead when
// disabled" claim at the allocation level: the default (no collector)
// snapshot path must not allocate in steady state — the same property the
// Snapshot108 benchmark tracks, asserted here so `go test` catches a
// regression without running benchmarks.
func TestSnapshotZeroAllocsUninstrumented(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector bookkeeping allocates; AllocsPerRun is meaningless")
	}
	sc, err := NewSpaceGround(24, telemetryTestParams())
	if err != nil {
		t.Fatal(err)
	}
	g := routing.NewGraph()
	// Warm the pooled evaluator and graph storage.
	for i := 0; i < 3; i++ {
		if err := sc.GraphInto(g, time.Duration(i)*time.Minute, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := sc.GraphInto(g, 5*time.Minute, nil); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("uninstrumented GraphInto allocates %v times per snapshot", n)
	}
}

// TestSnapshotZeroAllocsMetricsOnly: counters alone (no event sink) must
// also stay allocation-free per step — the cost of metrics is a handful of
// atomic adds.
func TestSnapshotZeroAllocsMetricsOnly(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector bookkeeping allocates; AllocsPerRun is meaningless")
	}
	p := telemetryTestParams()
	col := &telemetry.Collector{Registry: telemetry.NewRegistry()}
	p.Telemetry = col
	sc, err := NewSpaceGround(24, p)
	if err != nil {
		t.Fatal(err)
	}
	g := routing.NewGraph()
	var st netsim.SnapshotStats
	for i := 0; i < 3; i++ {
		if err := sc.GraphInto(g, time.Duration(i)*time.Minute, &st); err != nil {
			t.Fatal(err)
		}
	}
	// With and without caller stats: the counters are flushed either way.
	for _, stp := range []*netsim.SnapshotStats{&st, nil} {
		if n := testing.AllocsPerRun(20, func() {
			if err := sc.GraphInto(g, 5*time.Minute, stp); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("metrics-only snapshot (stats %v) allocates %v times per step", stp != nil, n)
		}
	}
	if st.Pairs == 0 || st.Admitted == 0 {
		t.Fatalf("snapshot stats not populated: %+v", st)
	}
	// Three warm-ups plus 21 calls per AllocsPerRun (one of them a warm-up).
	if got := counterValue(t, col, "snapshot_steps_total"); got != 3+2*21 {
		t.Fatalf("snapshot_steps_total = %d after %d snapshots", got, 3+2*21)
	}
}

// TestInstrumentDetach: Instrument(nil) must fully detach, restoring the
// uninstrumented fast path.
func TestInstrumentDetach(t *testing.T) {
	p := telemetryTestParams()
	col := telemetry.NewCollector()
	p.Telemetry = col
	sc, err := NewSpaceGround(6, p)
	if err != nil {
		t.Fatal(err)
	}
	sc.Instrument(nil)
	if sc.Telemetry() != nil {
		t.Fatal("Instrument(nil) left instrumentation attached")
	}
	if _, err := sc.RunServe(ServeConfig{RequestsPerStep: 2, Steps: 2, Horizon: time.Hour, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(t, col, "snapshot_steps_total"); got != 0 {
		t.Fatalf("detached run still counted %d steps", got)
	}
	if col.Events.Len() != 0 {
		t.Fatalf("detached run recorded %d events", col.Events.Len())
	}
}

// TestParamsHash: stable across calls and releases, sensitive to parameter
// changes, and blind to the runtime-only Telemetry field. The literal pins
// the default parameters' hash: manifests written by earlier builds must
// keep matching, so a change here means the codec or the hash changed.
func TestParamsHash(t *testing.T) {
	p := DefaultParams()
	h1 := ParamsHash(p)
	if want := "ca146edc916a3a3c"; h1 != want {
		t.Fatalf("ParamsHash(DefaultParams()) = %q, want %q", h1, want)
	}
	if h2 := ParamsHash(p); h2 != h1 {
		t.Fatalf("hash unstable: %q vs %q", h1, h2)
	}
	q := p
	q.StepInterval = 2 * p.StepInterval
	if ParamsHash(q) == h1 {
		t.Fatal("hash ignores StepInterval")
	}
	r := p
	r.Telemetry = telemetry.NewCollector()
	if ParamsHash(r) != h1 {
		t.Fatal("hash depends on the runtime-only Telemetry field")
	}
}

// TestBellmanFordRounds: the scratch must report how many relaxation rounds
// the last Run took — at least one on any non-trivial graph, and bounded by
// the node count.
func TestBellmanFordRounds(t *testing.T) {
	var scratch routing.BellmanFordScratch
	g := routing.NewGraph()
	for _, id := range []string{"a", "b", "c"} {
		g.AddNode(id)
	}
	g.AddEdge("a", "b", 1)
	g.AddEdge("b", "c", 1)
	scratch.Run(g, 0)
	if r := scratch.Rounds(); r < 1 || r > 3 {
		t.Fatalf("Rounds() = %d after a 3-node run", r)
	}
}

// TestServeLabelsDisambiguateSeeds pins the label format the sweep
// invariance relies on.
func TestServeLabelsDisambiguateSeeds(t *testing.T) {
	sc, err := NewSpaceGround(6, telemetryTestParams())
	if err != nil {
		t.Fatal(err)
	}
	a, b := sc.runLabel("serve", 1), sc.runLabel("serve", 2)
	if a == b {
		t.Fatalf("labels for different seeds collide: %q", a)
	}
	if !strings.Contains(a, "space-ground") || !strings.Contains(a, "seed=1") {
		t.Fatalf("label %q missing architecture or seed", a)
	}
}
