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
	if counterValue(t, col, "relax_rounds_total") < steps {
		t.Error("relax_rounds_total below one round per step")
	}

	// Every step emits exactly one event with the full snapshot accounting.
	events := col.Events.Events()
	if len(events) != cfg.Steps {
		t.Fatalf("%d events, want %d", len(events), cfg.Steps)
	}
	n := len(sc.Net.Nodes())
	wantPairs := int64(n * (n - 1) / 2)
	var evServed, evDropped int64
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
		evServed += e.Served
		evDropped += e.Dropped
	}
	if uint64(evServed) != served || uint64(evDropped) != dropped {
		t.Errorf("event served/dropped %d/%d disagree with counters %d/%d", evServed, evDropped, served, dropped)
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
		points, err := ServeSweepParallel(pw, sizes, cfg, workers)
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
		if _, err := CoverageSweepParallel(pw, sizes, duration, workers); err != nil {
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

// TestReplicatedSweepTelemetryWorkerInvariance: replicas of the same size
// share an architecture and relay count, so the seed-qualified serve labels
// are what keeps their event streams disjoint and the merge order-free.
func TestReplicatedSweepTelemetryWorkerInvariance(t *testing.T) {
	p := telemetryTestParams()
	cfg := ServeConfig{RequestsPerStep: 4, Steps: 3, Horizon: time.Hour, Seed: 5}
	sizes := []int{6, 12}

	var baseMetrics, baseEvents string
	for i, workers := range []int{1, 8} {
		col := telemetry.NewCollector()
		pw := p
		pw.Telemetry = col
		if _, err := ServeSweepReplicated(pw, sizes, cfg, 3, workers); err != nil {
			t.Fatal(err)
		}
		metrics, events := telemetryDump(t, col)
		if i == 0 {
			baseMetrics, baseEvents = metrics, events
			continue
		}
		if metrics != baseMetrics {
			t.Errorf("metrics at %d workers diverged", workers)
		}
		if events != baseEvents {
			t.Errorf("event stream at %d workers diverged", workers)
		}
	}

	// 2 sizes x 3 replicas x 3 steps, every (label, step) key distinct.
	col := telemetry.NewCollector()
	pw := p
	pw.Telemetry = col
	if _, err := ServeSweepReplicated(pw, sizes, cfg, 3, 2); err != nil {
		t.Fatal(err)
	}
	events := col.Events.Events()
	if len(events) != 2*3*3 {
		t.Fatalf("%d events, want 18", len(events))
	}
	seen := make(map[string]bool, len(events))
	for _, e := range events {
		key := e.Label + "#" + string(rune('0'+e.Step))
		if seen[key] {
			t.Fatalf("duplicate event key %q", key)
		}
		seen[key] = true
	}
}

// TestFaultTelemetry: a faulted run must surface outages and weather in both
// the counters and the event stream — and still match the uninstrumented
// faulted run bit for bit.
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

	pt := p
	col := telemetry.NewCollector()
	pt.Telemetry = col
	sc, err := NewSpaceGround(24, pt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sc.RunServe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("instrumented faulted serve diverged from uninstrumented")
	}

	downSteps := counterValue(t, col, "fault_node_down_steps_total")
	weatherSteps := counterValue(t, col, "fault_weather_steps_total")
	if downSteps == 0 && weatherSteps == 0 {
		t.Fatal("fault injection left no telemetry trace")
	}
	var evDown uint64
	var evWeather uint64
	for _, e := range col.Events.Events() {
		evDown += uint64(e.NodesDown)
		if e.Weather {
			evWeather++
		}
	}
	if evDown != downSteps {
		t.Errorf("event nodes_down sum %d != fault_node_down_steps_total %d", evDown, downSteps)
	}
	if evWeather != weatherSteps {
		t.Errorf("%d weather events != fault_weather_steps_total %d", evWeather, weatherSteps)
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
		if err := sc.GraphInto(g, time.Duration(i)*time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := sc.GraphInto(g, 5*time.Minute); err != nil {
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
		if err := sc.Net.SnapshotIntoStats(g, time.Duration(i)*time.Minute, &st); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := sc.Net.SnapshotIntoStats(g, 5*time.Minute, &st); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("metrics-only snapshot allocates %v times per step", n)
	}
	if st.Pairs == 0 || st.Admitted == 0 {
		t.Fatalf("snapshot stats not populated: %+v", st)
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
	if sc.Telemetry() != nil || sc.Net.Instruments() != nil {
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
	if want := "097853f3676ca929"; h1 != want {
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
	a, b := sc.serveLabel(1), sc.serveLabel(2)
	if a == b {
		t.Fatalf("labels for different seeds collide: %q", a)
	}
	if !strings.Contains(a, "space-ground") || !strings.Contains(a, "seed=1") {
		t.Fatalf("label %q missing architecture or seed", a)
	}
}
