package qntn

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"qntn/internal/netsim"
	"qntn/internal/runner"
	"qntn/internal/telemetry"
)

// trafficNDJSON runs the traffic engine on a freshly instrumented scenario
// and returns the flushed NDJSON event stream plus the result.
func trafficNDJSON(t *testing.T, build func() (*Scenario, error), cfg TrafficConfig) ([]byte, *TrafficResult) {
	t.Helper()
	sc, err := build()
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.NewCollector()
	sc.Instrument(col)
	res, err := sc.RunTraffic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := col.Events.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

// TestTrafficDeterministicAcrossWorkers is the engine's determinism gate:
// one seed must produce byte-identical NDJSON event streams — and
// identical results — at 1, 2 and 8 generation workers, because per-site
// streams are seeded independently and merged in canonical order.
func TestTrafficDeterministicAcrossWorkers(t *testing.T) {
	build := func() (*Scenario, error) { return NewSpaceGround(54, DefaultParams()) }
	base := TrafficConfig{
		RatePerHourPerSite: 12,
		Diurnal:            DiurnalProfile{Amplitude: 0.4, PeakHour: 18},
		Horizon:            2 * time.Hour,
		Seed:               5,
	}
	var refBytes []byte
	var refRes *TrafficResult
	for _, workers := range []int{1, 2, 8} {
		cfg := base
		cfg.Workers = workers
		gotBytes, gotRes := trafficNDJSON(t, build, cfg)
		if len(gotBytes) == 0 {
			t.Fatalf("workers=%d produced no events", workers)
		}
		if refBytes == nil {
			refBytes, refRes = gotBytes, gotRes
			continue
		}
		if !bytes.Equal(gotBytes, refBytes) {
			t.Fatalf("workers=%d NDJSON diverged from workers=1", workers)
		}
		// Results carry the config (including Workers), so compare the
		// physics fields.
		gotCmp, refCmp := *gotRes, *refRes
		gotCmp.Config, refCmp.Config = TrafficConfig{}, TrafficConfig{}
		if !reflect.DeepEqual(gotCmp, refCmp) {
			t.Fatalf("workers=%d result diverged:\n got %+v\nwant %+v", workers, gotCmp, refCmp)
		}
	}

	// Same seed replays byte-identically; a different seed does not.
	again, _ := trafficNDJSON(t, build, base)
	if !bytes.Equal(again, refBytes) {
		t.Fatal("same-seed rerun diverged")
	}
	reseeded := base
	reseeded.Seed = 6
	other, otherRes := trafficNDJSON(t, build, reseeded)
	if bytes.Equal(other, refBytes) && otherRes.Arrivals == refRes.Arrivals {
		t.Fatal("different seed produced an identical run")
	}
}

// sampleTraffic generates the scenario's merged arrival stream, as
// RunTraffic does before admission.
func sampleTraffic(sc *Scenario, cfg TrafficConfig) ([]trafficArrival, error) {
	sites, err := sc.trafficSites()
	if err != nil {
		return nil, err
	}
	return generateTraffic(sites, cfg)
}

// mergeArrivalsReference is the retired merge, kept verbatim as the
// reference for mergeArrivals: concatenate, then the reflection-based
// stable sort on (time, site).
func mergeArrivalsReference(perSite [][]trafficArrival) []trafficArrival {
	var merged []trafficArrival
	for _, s := range perSite {
		merged = append(merged, s...)
	}
	sort.SliceStable(merged, func(i, j int) bool {
		if merged[i].at != merged[j].at {
			return merged[i].at < merged[j].at
		}
		return merged[i].site < merged[j].site
	})
	for i := range merged {
		merged[i].req.ID = i + 1
	}
	return merged
}

// TestMergeArrivalsMatchesReference pins mergeArrivals to the retired sort
// on tie-heavy inputs: a handful of instants shared across sites, runs of
// same-instant arrivals from one site (told apart by their destinations,
// so a reordering within a site shows), and empty sites.
func TestMergeArrivalsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	sameSite := 0
	for trial := 0; trial < 200; trial++ {
		perSite := make([][]trafficArrival, 1+rng.Intn(8))
		for site := range perSite {
			var at time.Duration
			for k := rng.Intn(12); k > 0; k-- {
				if rng.Intn(3) == 0 {
					at += time.Duration(rng.Intn(3)) * time.Second
				} else {
					sameSite++
				}
				perSite[site] = append(perSite[site], trafficArrival{
					at:   at,
					site: site,
					req:  netsim.Request{Src: fmt.Sprint("s", site), Dst: fmt.Sprint("d", rng.Intn(1000))},
				})
			}
		}
		clone := func() [][]trafficArrival {
			c := make([][]trafficArrival, len(perSite))
			for i, s := range perSite {
				c[i] = slices.Clone(s)
			}
			return c
		}
		got, want := mergeArrivals(clone()), mergeArrivalsReference(clone())
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("trial %d: merged order differs from the reference:\n got %v\nwant %v", trial, got, want)
		}
	}
	if sameSite == 0 {
		t.Fatal("no same-instant arrivals from one site")
	}
}

// TestTrafficStreamsIndependentOfConstellation pins the purity contract:
// per-site streams depend only on (config, ground sites), so two
// scenarios differing solely in relay layer generate identical arrivals.
func TestTrafficStreamsIndependentOfConstellation(t *testing.T) {
	cfg := TrafficConfig{RatePerHourPerSite: 20, Horizon: time.Hour, Seed: 3}.withDefaults()
	small, err := NewSpaceGround(24, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	large, err := NewSpaceGround(108, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	a, err := sampleTraffic(small, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sampleTraffic(large, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("arrival streams depend on the relay layer")
	}
	if len(a) == 0 {
		t.Fatal("no arrivals generated")
	}
	// Merged stream invariants: sorted by (time, site), IDs sequential.
	for i := range a {
		if a[i].req.ID != i+1 {
			t.Fatalf("request IDs not sequential at %d: %d", i, a[i].req.ID)
		}
		if i > 0 && (a[i].at < a[i-1].at || (a[i].at == a[i-1].at && a[i].site < a[i-1].site)) {
			t.Fatalf("merge order violated at %d", i)
		}
	}
}

// TestSiteStreamCap: a site stream reserves the expected number of
// peak-rate proposals, rounded up, and a rate no slice could hold (or a NaN
// one from a library caller) clamps to the cap or to nothing instead of
// overflowing into a negative capacity.
func TestSiteStreamCap(t *testing.T) {
	daemon := DiurnalProfile{Amplitude: 0.3, PeakHour: 14}
	for _, tc := range []struct {
		rate    float64
		horizon time.Duration
		want    int
	}{
		{30, 10 * time.Minute, 7}, // 30 · 1.3 / 6 = 6.5
		{30, 30 * time.Minute, 20},
		{1e6, 24 * time.Hour, maxSiteStreamPrealloc},
		{1e300, 24 * time.Hour, maxSiteStreamPrealloc},
		{math.Inf(1), time.Hour, maxSiteStreamPrealloc},
		{math.NaN(), time.Hour, 0},
		{30, 0, 0},
	} {
		cfg := TrafficConfig{RatePerHourPerSite: tc.rate, Diurnal: daemon, Horizon: tc.horizon}
		if got := siteStreamCap(cfg); got != tc.want {
			t.Errorf("rate %g over %v: capacity %d, want %d", tc.rate, tc.horizon, got, tc.want)
		}
	}
}

// TestSiteStreamPooledMatchesFresh pins the pooled per-site generators: a
// stream drawn from a reused, re-seeded generator, and every site's share of
// the merged traffic at 1 and 4 workers, equal the stream of a freshly
// seeded source.
func TestSiteStreamPooledMatchesFresh(t *testing.T) {
	sc, err := NewSpaceGround(6, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := TrafficConfig{
		RatePerHourPerSite: 40,
		Diurnal:            DiurnalProfile{Amplitude: 0.3, PeakHour: 14},
		Horizon:            3 * time.Hour,
		Seed:               17,
	}.withDefaults()
	sites, err := sc.trafficSites()
	if err != nil {
		t.Fatal(err)
	}
	fresh := make([][]trafficArrival, len(sites))
	for i, s := range sites {
		rng := rand.New(rand.NewSource(runner.TaskSeed(cfg.Seed, runner.FNV64a(s.id))))
		fresh[i] = sampleSiteStream(rng, s, i, cfg)
		if len(fresh[i]) == 0 {
			t.Fatalf("site %s drew no arrivals", s.id)
		}
	}
	for round := 0; round < 3; round++ {
		// A generator that has drawn from another seed goes back first, so
		// the next Get reuses a dirty one unless the pool dropped it.
		used := rand.New(rand.NewSource(int64(round) + 99))
		used.Intn(7)
		siteRNGs.Put(used)
		for i, s := range sites {
			if got := siteStream(s, i, cfg); !reflect.DeepEqual(got, fresh[i]) {
				t.Fatalf("round %d site %s: pooled stream differs from a fresh source", round, s.id)
			}
		}
	}
	var merged [2][]trafficArrival
	for k, workers := range []int{1, 4} {
		c := cfg
		c.Workers = workers
		if merged[k], err = sampleTraffic(sc, c); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(merged[0], merged[1]) {
		t.Fatal("merged traffic depends on the worker count")
	}
	perSite := make([][]trafficArrival, len(sites))
	for _, a := range merged[0] {
		a.req.ID = 0 // the merge numbers requests; site streams do not
		perSite[a.site] = append(perSite[a.site], a)
	}
	if !reflect.DeepEqual(perSite, fresh) {
		t.Fatal("merged traffic differs from the fresh-source site streams")
	}
}

// TestTrafficDiurnalShape checks the Lewis–Shedler thinning actually bends
// the arrival rate: with a strong profile peaking at hour 6, the peak
// quarter of the day must out-arrive the trough quarter.
func TestTrafficDiurnalShape(t *testing.T) {
	sc, err := NewAirGround(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := TrafficConfig{
		RatePerHourPerSite: 30,
		Diurnal:            DiurnalProfile{Amplitude: 0.9, PeakHour: 6},
		Horizon:            24 * time.Hour,
		Seed:               8,
	}
	arr, err := sampleTraffic(sc, cfg.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	peak, trough := 0, 0
	for _, a := range arr {
		switch h := a.at.Hours(); {
		case h >= 3 && h < 9: // around the peak at 6
			peak++
		case h >= 15 && h < 21: // around the trough at 18
			trough++
		}
	}
	if peak <= 2*trough {
		t.Fatalf("diurnal profile too weak: peak window %d vs trough window %d", peak, trough)
	}

	// Multiplier endpoints.
	d := cfg.Diurnal
	if m := d.Multiplier(6 * time.Hour); m < 1.89 || m > 1.91 {
		t.Fatalf("peak multiplier %g", m)
	}
	if m := d.Multiplier(18 * time.Hour); m < 0.09 || m > 0.11 {
		t.Fatalf("trough multiplier %g", m)
	}
	if m := (DiurnalProfile{}).Multiplier(13 * time.Hour); m != 1 {
		t.Fatalf("flat profile multiplier %g", m)
	}
}

// TestTrafficServes runs the full engine on the always-bridged air-ground
// architecture: everything arrives served on the spot, and the per-step
// events reconcile with the result totals.
func TestTrafficServes(t *testing.T) {
	sc, err := NewAirGround(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.NewCollector()
	sc.Instrument(col)
	cfg := TrafficConfig{RatePerHourPerSite: 8, Horizon: time.Hour, Seed: 2}
	res, err := sc.RunTraffic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sites != 31 {
		t.Fatalf("expected the paper's 31 ground sites, got %d", res.Sites)
	}
	if res.Arrivals == 0 || res.Served != res.Arrivals || res.ServedImmediately != res.Served {
		t.Fatalf("air-ground should serve everything immediately: %+v", res)
	}
	if res.QueuedAtEnd != 0 || res.MaxQueueDepth != 0 || res.MeanWait != 0 {
		t.Fatalf("air-ground should never queue: %+v", res)
	}
	if res.Steps != 121 { // one hour at 30 s, endpoints inclusive
		t.Fatalf("expected 121 topology steps, got %d", res.Steps)
	}
	if res.RequestsEvaluated != res.Arrivals {
		t.Fatalf("no drains expected: evaluated %d vs arrivals %d", res.RequestsEvaluated, res.Arrivals)
	}

	events := col.Events.Events()
	var evArrivals, evServed int64
	for _, e := range events {
		evArrivals += e.Arrivals
		evServed += e.Served
		if e.QueueDepth != 0 {
			t.Fatalf("step %d reports queue depth %d", e.Step, e.QueueDepth)
		}
	}
	// Every arrival falls in the window of the update before it, the last
	// window running to the horizon, so the events reconcile exactly.
	if evArrivals != int64(res.Arrivals) || evServed != int64(res.Served) {
		t.Fatalf("events count arrivals %d, served %d; result %d, %d", evArrivals, evServed, res.Arrivals, res.Served)
	}
}

// TestTrafficTelemetryCountsTail: the request counters and the per-step
// events must hold the whole run, including the requests that arrive after
// the last topology update. A 95 s horizon ends 5 s past the update at
// 90 s, and the arrivals of those 5 s are served on the always-bridged
// air-ground scenario; the last step's event window runs to the horizon.
func TestTrafficTelemetryCountsTail(t *testing.T) {
	sc, err := NewAirGround(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.NewCollector()
	sc.Instrument(col)
	cfg := TrafficConfig{RatePerHourPerSite: 200, Horizon: 95 * time.Second, Seed: 1}
	arrivals, err := sampleTraffic(sc, cfg.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	grid := admissionGrid(sc.Params, cfg.Horizon)
	lastUpdate := grid.at(grid.steps - 1)
	tail := 0
	for _, a := range arrivals {
		if a.at > lastUpdate {
			tail++
		}
	}
	if tail == 0 {
		t.Fatalf("no request arrives after the last update at %v; the tail goes untested", lastUpdate)
	}
	res, err := sc.RunTraffic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events := col.Events.Events()
	var evArrivals, evServed int64
	for _, e := range events {
		evArrivals += e.Arrivals
		evServed += e.Served
	}
	if evArrivals != int64(res.Arrivals) || evServed != int64(res.Served) {
		t.Errorf("events count arrivals %d, served %d; result %d, %d", evArrivals, evServed, res.Arrivals, res.Served)
	}
	if last := events[len(events)-1]; last.Arrivals < int64(tail) {
		t.Errorf("last event (t=%vs) counts %d arrivals, %d arrive after its update", last.TSeconds, last.Arrivals, tail)
	}
	served := counterValue(t, col, "requests_served_total")
	dropped := counterValue(t, col, "requests_dropped_total")
	if served != uint64(res.Served) {
		t.Errorf("requests_served_total = %d, result served %d", served, res.Served)
	}
	if served+dropped != uint64(res.Arrivals) {
		t.Errorf("served %d + dropped %d != %d arrivals", served, dropped, res.Arrivals)
	}
	if n := col.Registry.Histogram("served_fidelity", nil).Count(); n != served {
		t.Errorf("served_fidelity count %d != requests_served_total %d", n, served)
	}
}

// TestTrafficRejectsBadConfig covers the validation surface.
func TestTrafficRejectsBadConfig(t *testing.T) {
	sc, err := NewAirGround(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]TrafficConfig{
		"zero rate":      {RatePerHourPerSite: 0},
		"NaN rate":       {RatePerHourPerSite: math.NaN()},
		"+Inf rate":      {RatePerHourPerSite: math.Inf(1)},
		"-Inf rate":      {RatePerHourPerSite: math.Inf(-1)},
		"amplitude >= 1": {RatePerHourPerSite: 10, Diurnal: DiurnalProfile{Amplitude: 1}},
		"negative amp":   {RatePerHourPerSite: 10, Diurnal: DiurnalProfile{Amplitude: -0.1}},
		"NaN amplitude":  {RatePerHourPerSite: 10, Diurnal: DiurnalProfile{Amplitude: math.NaN()}},
		"peak hour 24":   {RatePerHourPerSite: 10, Diurnal: DiurnalProfile{Amplitude: 0.5, PeakHour: 24}},
		"NaN peak hour":  {RatePerHourPerSite: 10, Diurnal: DiurnalProfile{Amplitude: 0.5, PeakHour: math.NaN()}},
	} {
		// validate alone first: a non-finite rate it let through would send
		// RunTraffic's Poisson loop round without end.
		if err := cfg.validate(); err == nil {
			t.Fatalf("%s passed validate", name)
		}
		if _, err := sc.RunTraffic(cfg); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}

	// Single-LAN scenarios cannot form inter-LAN traffic.
	if _, err := singleLANScenario(t, 1).RunTraffic(TrafficConfig{RatePerHourPerSite: 10}); err == nil {
		t.Fatal("single-LAN scenario accepted")
	}
}
