package telemetry

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilHandlesAreSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(7)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 || h.Bounds() != nil || h.BucketCounts() != nil {
		t.Fatal("nil histogram has state")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x", nil) != nil {
		t.Fatal("nil registry handed out a handle")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry has a snapshot")
	}
	r.Merge(NewRegistry()) // must not panic
	var s *EventSink
	s.Record(Event{Label: "x"})
	if s.Len() != 0 || s.Events() != nil {
		t.Fatal("nil sink has events")
	}
	s.Merge(NewEventSink()) // must not panic
	var sp *Span
	if ph := sp.End(); ph != (Phase{}) {
		t.Fatalf("nil span ended to %+v", ph)
	}
	var col *Collector
	if col.Reg() != nil || col.Sink() != nil || col.Shards(3) != nil {
		t.Fatal("nil collector has parts")
	}
	col.MergeShards(nil) // must not panic
}

func TestNilHandlesDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector bookkeeping allocates; AllocsPerRun is meaningless")
	}
	var c *Counter
	var g *Gauge
	var h *Histogram
	var s *EventSink
	ev := Event{Label: "x"}
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(5)
		g.Set(1)
		h.Observe(0.5)
		s.Record(ev)
	}); n != 0 {
		t.Fatalf("nil handles allocated %v times per run", n)
	}
}

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
	if r.Counter("hits") != c {
		t.Fatal("create-or-get returned a different counter")
	}
	g := r.Gauge("depth")
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
	if r.Gauge("depth") != g {
		t.Fatal("create-or-get returned a different gauge")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, x := range []float64{0.5, 1, 1.5, 2, 3, 4, 5, 100} {
		h.Observe(x)
	}
	h.Observe(math.NaN()) // dropped
	want := []uint64{2, 2, 2, 2}
	if got := h.BucketCounts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("buckets = %v, want %v", got, want)
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	if h.Sum() != 117 {
		t.Fatalf("sum = %v, want 117", h.Sum())
	}
	if got := h.Bounds(); !reflect.DeepEqual(got, []float64{1, 2, 4}) {
		t.Fatalf("bounds = %v", got)
	}
}

func TestHistogramFirstBoundsWin(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("lat", []float64{1, 2})
	h2 := r.Histogram("lat", []float64{10, 20, 30})
	if h1 != h2 {
		t.Fatal("create-or-get returned a different histogram")
	}
	if got := h2.Bounds(); !reflect.DeepEqual(got, []float64{1, 2}) {
		t.Fatalf("bounds = %v, want first registration's", got)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram([]float64{0.5})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	if math.Abs(h.Sum()-2000) > 1e-9 {
		t.Fatalf("sum = %v, want 2000", h.Sum())
	}
}

func TestRegistryMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("c").Add(10)
	b.Counter("c").Add(5)
	b.Counter("only_b").Inc()
	a.Gauge("g").Set(2)
	b.Gauge("g").Set(3)
	a.Histogram("h", []float64{1}).Observe(0.5)
	b.Histogram("h", []float64{1}).Observe(2)
	a.Merge(b)
	if v := a.Counter("c").Value(); v != 15 {
		t.Fatalf("merged counter = %d, want 15", v)
	}
	if v := a.Counter("only_b").Value(); v != 1 {
		t.Fatalf("merged new counter = %d, want 1", v)
	}
	if v := a.Gauge("g").Value(); v != 5 {
		t.Fatalf("merged gauge = %d, want 5 (gauges add on merge)", v)
	}
	h := a.Histogram("h", nil)
	if h.Count() != 2 || h.Sum() != 2.5 {
		t.Fatalf("merged histogram count=%d sum=%v", h.Count(), h.Sum())
	}
	if got := h.BucketCounts(); !reflect.DeepEqual(got, []uint64{1, 1}) {
		t.Fatalf("merged buckets = %v", got)
	}
}

func TestHistogramMergeBoundsMismatch(t *testing.T) {
	dst := newHistogram([]float64{1, 2})
	src := newHistogram([]float64{5})
	src.Observe(0.5)
	src.Observe(10)
	dst.merge(src)
	if dst.Count() != 2 || dst.Sum() != 10.5 {
		t.Fatalf("count=%d sum=%v", dst.Count(), dst.Sum())
	}
	// Mismatched shards fold entirely into the overflow bucket.
	if got := dst.BucketCounts(); !reflect.DeepEqual(got, []uint64{0, 0, 2}) {
		t.Fatalf("buckets = %v", got)
	}
}

func TestSnapshotSortedAndComplete(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz").Inc()
	r.Gauge("aa").Set(1)
	r.Histogram("mm", []float64{1}).Observe(0.5)
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d entries", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name > snap[i].Name {
			t.Fatalf("snapshot unsorted: %q after %q", snap[i].Name, snap[i-1].Name)
		}
	}
	if snap[0].Name != "aa" || snap[0].Kind != "gauge" || snap[0].Value != 1 {
		t.Fatalf("snap[0] = %+v", snap[0])
	}
	if snap[1].Name != "mm" || snap[1].Kind != "histogram" || snap[1].Count != 1 {
		t.Fatalf("snap[1] = %+v", snap[1])
	}
}

func TestWriteTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("pairs_total").Add(2186064) // large enough to tempt %g into an exponent
	r.Histogram("fid", []float64{0.5, 0.9}).Observe(0.7)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := "histogram fid count=1 sum=0.7 le(0.5)=0 le(0.9)=1 le(+Inf)=0\n" +
		"counter pairs_total 2186064\n"
	if b.String() != want {
		t.Fatalf("WriteText:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("steps_total").Add(240)
	h := r.Histogram("fid", []float64{0.5, 0.9})
	h.Observe(0.4)
	h.Observe(0.7)
	h.Observe(0.95)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE qntn_fid histogram",
		"qntn_fid_bucket{le=\"0.5\"} 1",
		"qntn_fid_bucket{le=\"0.9\"} 2",  // cumulative
		"qntn_fid_bucket{le=\"+Inf\"} 3", // cumulative incl. overflow
		"qntn_fid_count 3",
		"# TYPE qntn_steps_total counter",
		"qntn_steps_total 240",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestEventSinkSortAndMerge(t *testing.T) {
	s := NewEventSink()
	s.Record(Event{Label: "b", Step: 1})
	s.Record(Event{Label: "a", Step: 2})
	other := NewEventSink()
	other.Record(Event{Label: "a", Step: 1})
	s.Merge(other)
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	ev := s.Events()
	want := []Event{{Label: "a", Step: 1}, {Label: "a", Step: 2}, {Label: "b", Step: 1}}
	if !reflect.DeepEqual(ev, want) {
		t.Fatalf("events = %+v", ev)
	}
}

func TestEventValidate(t *testing.T) {
	ok := Event{Label: "serve/x/6/seed=1", Step: 3, TSeconds: 90, PairsEvaluated: 10}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		e    Event
	}{
		{"empty label", Event{}},
		{"negative step", Event{Label: "x", Step: -1}},
		{"nan t_s", Event{Label: "x", TSeconds: math.NaN()}},
		{"inf t_s", Event{Label: "x", TSeconds: math.Inf(1)}},
		{"negative t_s", Event{Label: "x", TSeconds: -1}},
		{"nan fidelity", Event{Label: "x", MeanFidelity: math.NaN()}},
		{"inf fidelity", Event{Label: "x", MeanFidelity: math.Inf(-1)}},
		{"negative pairs", Event{Label: "x", PairsEvaluated: -1}},
		{"negative served", Event{Label: "x", Served: -2}},
	}
	for _, c := range cases {
		if err := c.e.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, c.e)
		}
	}
}

func TestNDJSONRoundTrip(t *testing.T) {
	s := NewEventSink()
	events := []Event{
		{Label: "coverage/space-ground/108", Step: 0, TSeconds: 0, PairsEvaluated: 5886, LinksAdmitted: 12, HorizonRejects: 3000, RangeRejects: 2000, Covered: true},
		{Label: "serve/air-ground/2/seed=7", Step: 4, TSeconds: 120, PairsEvaluated: 45, LinksAdmitted: 9, TreesBuilt: 3, NodesSettled: 41, Served: 8, Dropped: 2, MeanFidelity: 0.9125},
		{Label: "serve/air-ground/2/seed=7", Step: 5, TSeconds: 150, NodesDown: 1, Weather: true},
	}
	for _, e := range events {
		s.Record(e)
	}
	var b bytes.Buffer
	if err := s.WriteNDJSON(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadNDJSON(&b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s.Events()) {
		t.Fatalf("round trip mismatch:\n%+v\nvs\n%+v", got, s.Events())
	}
}

func TestReadNDJSONRejects(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"unknown field", `{"label":"x","step":0,"t_s":0,"pairs_evaluated":0,"links_admitted":0,"horizon_rejects":0,"range_rejects":0,"bogus":1}`, "row 1"},
		{"trailing data", `{"label":"x","step":0,"t_s":0,"pairs_evaluated":0,"links_admitted":0,"horizon_rejects":0,"range_rejects":0} {"x":1}`, "row 1"},
		{"not json", "hello", "row 1"},
		{"invalid event", `{"label":"","step":0,"t_s":0,"pairs_evaluated":0,"links_admitted":0,"horizon_rejects":0,"range_rejects":0}`, "empty label"},
		{"second row bad", "{\"label\":\"x\",\"step\":0,\"t_s\":0,\"pairs_evaluated\":0,\"links_admitted\":0,\"horizon_rejects\":0,\"range_rejects\":0}\n{\"label\":\"x\",\"step\":-3,\"t_s\":0,\"pairs_evaluated\":0,\"links_admitted\":0,\"horizon_rejects\":0,\"range_rejects\":0}", "row 2"},
	}
	for _, c := range cases {
		_, err := ReadNDJSON(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}
	// Blank lines are tolerated.
	got, err := ReadNDJSON(strings.NewReader("\n\n{\"label\":\"x\",\"step\":0,\"t_s\":0,\"pairs_evaluated\":0,\"links_admitted\":0,\"horizon_rejects\":0,\"range_rejects\":0}\n\n"))
	if err != nil || len(got) != 1 {
		t.Fatalf("blank lines: got %d events, err %v", len(got), err)
	}
}

func TestWriteNDJSONRejectsInvalid(t *testing.T) {
	s := NewEventSink()
	s.Record(Event{Label: "x", TSeconds: math.Inf(1)})
	var b bytes.Buffer
	if err := s.WriteNDJSON(&b); err == nil {
		t.Fatal("invalid event written")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := Manifest{
		Command:     "fig7",
		ParamsHash:  "097853f3676ca929",
		Seed:        42,
		GitDescribe: "09e21c8-dirty",
		GoVersion:   "go1.24.0",
		GOMAXPROCS:  4,
		NumCPU:      8,
		WallNs:      1234567,
		CPUSeconds:  1.5,
		Phases:      []Phase{{Name: "fig7", WallNs: 1234567}},
		Summary:     map[string]float64{"snapshot_steps_total": 240, "served_fidelity_sum": 100.25},
	}
	var b bytes.Buffer
	if err := WriteManifest(&b, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(&b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip mismatch:\n%+v\nvs\n%+v", got, m)
	}
}

func TestManifestValidate(t *testing.T) {
	cases := []struct {
		name string
		m    Manifest
	}{
		{"empty command", Manifest{}},
		{"negative gomaxprocs", Manifest{Command: "x", GOMAXPROCS: -1}},
		{"negative wall", Manifest{Command: "x", WallNs: -1}},
		{"nan cpu", Manifest{Command: "x", CPUSeconds: math.NaN()}},
		{"negative cpu", Manifest{Command: "x", CPUSeconds: -1}},
		{"unnamed phase", Manifest{Command: "x", Phases: []Phase{{}}}},
		{"negative phase wall", Manifest{Command: "x", Phases: []Phase{{Name: "p", WallNs: -1}}}},
		{"inf summary", Manifest{Command: "x", Summary: map[string]float64{"k": math.Inf(1)}}},
	}
	for _, c := range cases {
		if err := c.m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, c.m)
		}
		var b bytes.Buffer
		if err := WriteManifest(&b, c.m); err == nil {
			t.Errorf("%s: WriteManifest accepted %+v", c.name, c.m)
		}
	}
	if _, err := ReadManifest(strings.NewReader(`{"command":"x","bogus":1}`)); err == nil {
		t.Fatal("unknown manifest field accepted")
	}
}

func TestSpanProducesPhase(t *testing.T) {
	now := time.Unix(100, 0)
	clock := func() time.Time { return now }
	sp := StartSpan("unit", clock)
	now = now.Add(250 * time.Millisecond)
	ph := sp.End()
	if ph.Name != "unit" {
		t.Fatalf("phase name %q", ph.Name)
	}
	if want := int64(250 * time.Millisecond); ph.WallNs != want {
		t.Fatalf("wall %d, want %d", ph.WallNs, want)
	}
}

func TestProcessCPUSeconds(t *testing.T) {
	if v := ProcessCPUSeconds(); v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("ProcessCPUSeconds = %v", v)
	}
}

func TestCollectorShardsAndMerge(t *testing.T) {
	c := NewCollector()
	shards := c.Shards(3)
	if len(shards) != 3 {
		t.Fatalf("%d shards", len(shards))
	}
	for i, s := range shards {
		if s.Events == nil {
			t.Fatalf("shard %d missing event sink", i)
		}
		s.Registry.Counter("work").Add(uint64(i + 1))
		s.Events.Record(Event{Label: "shard", Step: i})
	}
	c.MergeShards(shards)
	if v := c.Registry.Counter("work").Value(); v != 6 {
		t.Fatalf("merged counter = %d, want 6", v)
	}
	if c.Events.Len() != 3 {
		t.Fatalf("merged events = %d, want 3", c.Events.Len())
	}

	// Metrics-only collector produces metrics-only shards.
	mo := &Collector{Registry: NewRegistry()}
	for _, s := range mo.Shards(2) {
		if s.Events != nil {
			t.Fatal("metrics-only collector grew an event sink in its shard")
		}
	}
}

// TestMergeOrderInvariance pins the commutativity claim the sweep engine
// relies on: folding the same shard values in any order yields identical
// registry snapshots and (after the stable flush sort) identical event
// streams.
func TestMergeOrderInvariance(t *testing.T) {
	build := func(order []int) ([]Metric, []Event) {
		c := NewCollector()
		shards := c.Shards(4)
		for i, s := range shards {
			s.Registry.Counter("pairs").Add(uint64(100 * (i + 1)))
			// Exact binary fractions keep the float sum independent of
			// addition order; the production invariant additionally fixes
			// the merge order, but the test permutes it.
			s.Registry.Histogram("fid", []float64{0.5}).Observe(0.25 * float64(i+1))
			s.Events.Record(Event{Label: "seg", Step: i, TSeconds: float64(i)})
		}
		perm := make([]*Collector, len(shards))
		for i, j := range order {
			perm[i] = shards[j]
		}
		c.MergeShards(perm)
		return c.Registry.Snapshot(), c.Events.Events()
	}
	m1, e1 := build([]int{0, 1, 2, 3})
	m2, e2 := build([]int{3, 1, 0, 2})
	if !reflect.DeepEqual(m1, m2) {
		t.Fatalf("metric snapshots differ across merge order:\n%+v\nvs\n%+v", m1, m2)
	}
	if !reflect.DeepEqual(e1, e2) {
		t.Fatalf("event streams differ across merge order:\n%+v\nvs\n%+v", e1, e2)
	}
}
