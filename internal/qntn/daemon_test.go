package qntn

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qntn/internal/telemetry"
)

// testClock is a deterministic wall clock advancing one second per read,
// so throughput gauges get a nonzero elapsed time without real sleeping.
// Concurrent handlers read it, as they would time.Now.
func testClock() func() time.Time {
	var ticks atomic.Int64
	return func() time.Time {
		return time.Unix(ticks.Add(1), 0)
	}
}

func newTestDaemon(t *testing.T) *Daemon {
	t.Helper()
	d, err := NewDaemon(DefaultParams(), testClock())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func postTraffic(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/traffic", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestDaemonMatchesLibrary is the daemon-vs-library equivalence gate on a
// fixed query set: the NDJSON body a daemon query streams must be byte
// identical to instrumenting the equivalent scenario in process and
// flushing its event sink — including space-ground queries, which the
// daemon serves from the shared ephemeris cache rather than a fresh
// propagation.
func TestDaemonMatchesLibrary(t *testing.T) {
	d := newTestDaemon(t)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	// The daemon refuses more workers than GOMAXPROCS.
	workers := min(2, runtime.GOMAXPROCS(0))
	queries := []struct {
		body  string
		build func() (*Scenario, error)
		cfg   TrafficConfig
	}{
		{
			body:  fmt.Sprintf(`{"arch":"space-ground","satellites":36,"rate_per_hour_per_site":10,"diurnal_amplitude":0.5,"peak_hour":18,"horizon":"1h","seed":4,"workers":%d}`, workers),
			build: func() (*Scenario, error) { return NewSpaceGround(36, DefaultParams()) },
			cfg: TrafficConfig{
				RatePerHourPerSite: 10,
				Diurnal:            DiurnalProfile{Amplitude: 0.5, PeakHour: 18},
				Horizon:            time.Hour,
				Seed:               4,
				Workers:            workers,
			},
		},
		{
			body:  `{"arch":"air-ground","rate_per_hour_per_site":6,"horizon":"45m","seed":11}`,
			build: func() (*Scenario, error) { return NewAirGround(DefaultParams()) },
			cfg:   TrafficConfig{RatePerHourPerSite: 6, Horizon: 45 * time.Minute, Seed: 11},
		},
	}
	for _, q := range queries {
		resp := postTraffic(t, srv.URL, q.body)
		gotBody, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %s: status %d: %s", q.body, resp.StatusCode, gotBody)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("content type %q", ct)
		}

		sc, err := q.build()
		if err != nil {
			t.Fatal(err)
		}
		col := telemetry.NewCollector()
		sc.Instrument(col)
		res, err := sc.RunTraffic(q.cfg)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := col.Events.WriteNDJSON(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBody, want.Bytes()) {
			t.Fatalf("query %s: daemon NDJSON diverged from library run", q.body)
		}
		if got := resp.Header.Get("X-Qntn-Requests-Evaluated"); got == "" || got == "0" {
			t.Fatalf("missing requests-evaluated header, got %q", got)
		}
		events, err := telemetry.ReadNDJSON(bytes.NewReader(gotBody))
		if err != nil {
			t.Fatalf("daemon stream fails the strict reader: %v", err)
		}
		if len(events) != res.Steps {
			t.Fatalf("expected one event per step (%d), got %d", res.Steps, len(events))
		}
	}

	// Identical queries replay byte-identically across daemon calls.
	first := postTraffic(t, srv.URL, queries[0].body)
	b1, _ := io.ReadAll(first.Body)
	first.Body.Close()
	second := postTraffic(t, srv.URL, queries[0].body)
	b2, _ := io.ReadAll(second.Body)
	second.Body.Close()
	if !bytes.Equal(b1, b2) {
		t.Fatal("repeated daemon query diverged")
	}
}

// TestDaemonFaultedDayQuery: a traffic query's admission samples its
// horizon instant, so the daemon lengthens a fault schedule past the
// longest horizon it accepts and serves a faulted one-day query.
func TestDaemonFaultedDayQuery(t *testing.T) {
	d, err := NewDaemon(faultyParams(5), testClock())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	resp := postTraffic(t, srv.URL, `{"arch":"air-ground","rate_per_hour_per_site":1,"horizon":"24h","seed":3}`)
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("faulted one-day query: status %d: %s", resp.StatusCode, body)
	}
}

// TestDaemonMetrics exercises /metrics and /healthz: query totals, the
// merged per-query engine counters, and the throughput gauge all surface
// in Prometheus text format.
func TestDaemonMetrics(t *testing.T) {
	d := newTestDaemon(t)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	resp := postTraffic(t, srv.URL, `{"arch":"air-ground","rate_per_hour_per_site":12,"horizon":"30m","seed":1}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traffic query status %d", resp.StatusCode)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", mresp.StatusCode)
	}
	text := string(metrics)
	for _, want := range []string{
		"qntn_daemon_queries_total 1",
		"qntn_daemon_query_errors_total 0",
		"qntn_daemon_requests_evaluated_total",
		"qntn_daemon_requests_evaluated_per_sec",
		"qntn_daemon_inflight_queries 0",
		// Folded in from the per-query collector.
		"qntn_snapshot_steps_total",
		"qntn_requests_served_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
	if d.RequestsEvaluated() == 0 {
		t.Fatal("daemon evaluated counter never advanced")
	}

	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || string(hb) != "ok\n" {
		t.Fatalf("/healthz: %d %q", hresp.StatusCode, hb)
	}
}

// TestDaemonInflightGate fills the daemon's query slots by hand, so the
// gate is full without racing real queries: a traffic query then gets 503
// with Retry-After before its body is read — a malformed body would
// otherwise be a 400 — and counts as a query error. Freeing one slot admits
// the next query. The gate must admit at least one query, or a single
// client could never be served.
func TestDaemonInflightGate(t *testing.T) {
	d := newTestDaemon(t)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	if got, want := cap(d.slots), inflightPerProc*runtime.GOMAXPROCS(0); got != want || got < 1 {
		t.Fatalf("gate admits %d queries, want %d (and at least 1)", got, want)
	}
	for i := 0; i < cap(d.slots); i++ {
		d.slots <- struct{}{}
	}
	for _, body := range []string{`{`, `{"arch":"air-ground","rate_per_hour_per_site":1,"horizon":"10m"}`} {
		resp := postTraffic(t, srv.URL, body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("query %s with the gate full: status %d, want 503", body, resp.StatusCode)
		}
		if got := resp.Header.Get("Retry-After"); got != retryAfter {
			t.Fatalf("Retry-After %q, want %q", got, retryAfter)
		}
	}
	if got := d.reg.Counter("daemon_query_errors_total").Value(); got != 2 {
		t.Fatalf("error counter %d, want 2", got)
	}
	if got := d.reg.Gauge("daemon_inflight_queries").Value(); got != 0 {
		t.Fatalf("refused queries left the in-flight gauge at %d", got)
	}

	<-d.slots
	resp := postTraffic(t, srv.URL, `{"arch":"air-ground","rate_per_hour_per_site":1,"horizon":"10m"}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after a slot freed: status %d, want 200", resp.StatusCode)
	}
	if got := len(d.slots); got != cap(d.slots)-1 {
		t.Fatalf("served query did not return its slot: %d of %d held", got, cap(d.slots))
	}
}

// TestDaemonInflightGateConcurrent sends twice as many cheap queries as
// the gate admits, all at once: each gets 200 or 503, the 503s are exactly
// the counted errors, and every slot and the in-flight gauge are released
// afterwards.
func TestDaemonInflightGateConcurrent(t *testing.T) {
	d := newTestDaemon(t)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	n := 2 * cap(d.slots)
	codes := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/traffic", "application/json",
				strings.NewReader(`{"arch":"air-ground","rate_per_hour_per_site":1,"horizon":"10m"}`))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	wg.Wait()
	close(codes)
	refused := 0
	for code := range codes {
		switch code {
		case http.StatusOK:
		case http.StatusServiceUnavailable:
			refused++
		default:
			t.Fatalf("status %d, want 200 or 503", code)
		}
	}
	if got := d.reg.Counter("daemon_query_errors_total").Value(); got != uint64(refused) {
		t.Fatalf("error counter %d, %d queries refused", got, refused)
	}
	if len(d.slots) != 0 || d.reg.Gauge("daemon_inflight_queries").Value() != 0 {
		t.Fatalf("%d slots still held, in-flight gauge %d", len(d.slots), d.reg.Gauge("daemon_inflight_queries").Value())
	}
}

// groundSites is the number of ground hosts on the paper's LANs, the site
// count of every daemon query.
func groundSites() int {
	n := 0
	for _, lan := range GroundNetworks() {
		n += len(lan.Nodes)
	}
	return n
}

// TestDaemonRejectsBadQueries covers the 4xx surface: malformed JSON,
// unknown fields (strict decoding), unknown architectures, bad or
// over-long horizons, invalid traffic shapes, arrival counts past the cap
// and oversized bodies — all recorded on the error counter. No rejected query may build an ephemeris
// cache; a horizon past one day would otherwise hold the catalog at up to
// millions of instants.
func TestDaemonRejectsBadQueries(t *testing.T) {
	propagations := 0
	propagationHook = func(int) { propagations++ }
	defer func() { propagationHook = nil }()

	d := newTestDaemon(t)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	bad := []struct {
		body string
		code int
	}{
		{`{`, http.StatusBadRequest},
		{`{"arch":"air-ground","rate_per_hour_per_site":10,"bogus":1}`, http.StatusBadRequest},
		{`{"arch":"submarine","rate_per_hour_per_site":10}`, http.StatusBadRequest},
		{`{"arch":"air-ground","rate_per_hour_per_site":10,"horizon":"soon"}`, http.StatusBadRequest},
		{`{"arch":"air-ground","rate_per_hour_per_site":0}`, http.StatusBadRequest},
		{`{"arch":"space-ground","satellites":0,"rate_per_hour_per_site":10}`, http.StatusBadRequest},
		{`{"arch":"space-ground","satellites":109,"rate_per_hour_per_site":10}`, http.StatusBadRequest},
		// space-ground sizes follow the same rule, checked before the
		// catalog is propagated.
		{`{"arch":"space-ground","satellites":7,"rate_per_hour_per_site":10}`, http.StatusBadRequest},
		{`{"arch":"air-ground","rate_per_hour_per_site":10,"diurnal_amplitude":1.5}`, http.StatusBadRequest},
		{`{"arch":"space-ground","satellites":108,"rate_per_hour_per_site":10,"horizon":"8760h"}`, http.StatusBadRequest},
		{`{"arch":"space-ground","satellites":6,"rate_per_hour_per_site":10,"horizon":"24h0m0.000000001s"}`, http.StatusBadRequest},
		{`{"arch":"hybrid","satellites":6,"rate_per_hour_per_site":10,"horizon":"48h"}`, http.StatusBadRequest},
		// hybrid sizes follow the paper constellation's: multiples of 6 in
		// [6,108].
		{`{"arch":"hybrid","satellites":0,"rate_per_hour_per_site":10}`, http.StatusBadRequest},
		{`{"arch":"hybrid","satellites":7,"rate_per_hour_per_site":10}`, http.StatusBadRequest},
		{`{"arch":"hybrid","satellites":114,"rate_per_hour_per_site":10}`, http.StatusBadRequest},
		{`{"arch":"air-ground","rate_per_hour_per_site":10,"horizon":"25h"}`, http.StatusBadRequest},
		{`{"arch":"` + strings.Repeat("a", maxQueryBytes) + `","rate_per_hour_per_site":10}`, http.StatusRequestEntityTooLarge},
		{`{` + strings.Repeat(" ", 2*maxQueryBytes) + `}`, http.StatusRequestEntityTooLarge},
		{`{"arch":"space-ground","satellites":6,"rate_per_hour_per_site":10,"workers":-1}`, http.StatusBadRequest},
		{fmt.Sprintf(`{"arch":"space-ground","satellites":6,"rate_per_hour_per_site":10,"workers":%d}`, runtime.GOMAXPROCS(0)+1), http.StatusBadRequest},
		// Expected arrivals past maxQueryArrivals: refused before any
		// arrival or ephemeris is generated.
		{`{"arch":"space-ground","satellites":6,"rate_per_hour_per_site":1e300}`, http.StatusBadRequest},
		{fmt.Sprintf(`{"arch":"air-ground","rate_per_hour_per_site":%g,"diurnal_amplitude":0.5,"horizon":"1h"}`,
			1.01*maxQueryArrivals/(1.5*float64(groundSites()))), http.StatusBadRequest},
	}
	for _, tc := range bad {
		resp := postTraffic(t, srv.URL, tc.body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Fatalf("query %.80s: status %d, want %d", tc.body, resp.StatusCode, tc.code)
		}
	}
	if got := d.reg.Counter("daemon_query_errors_total").Value(); got != uint64(len(bad)) {
		t.Fatalf("error counter %d, want %d", got, len(bad))
	}
	if propagations != 0 || len(d.caches) != 0 {
		t.Fatalf("rejected queries propagated the catalog %d times and left %d caches", propagations, len(d.caches))
	}

	// The horizon limit is inclusive: exactly one day is served.
	resp := postTraffic(t, srv.URL, `{"arch":"air-ground","rate_per_hour_per_site":1,"horizon":"24h"}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("one-day horizon: status %d, want 200", resp.StatusCode)
	}

	// GET on the traffic route is method-not-allowed, not a panic.
	resp, err := http.Get(srv.URL + "/v1/traffic")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/traffic: status %d", resp.StatusCode)
	}
}

// TestDaemonSharedEphemerisCache pins the cross-request cache: two
// space-ground queries with one horizon propagate the catalog once, and a
// different horizon builds a second cache entry.
func TestDaemonSharedEphemerisCache(t *testing.T) {
	propagations := 0
	propagationHook = func(int) { propagations++ }
	defer func() { propagationHook = nil }()

	d := newTestDaemon(t)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	for _, body := range []string{
		`{"arch":"space-ground","satellites":24,"rate_per_hour_per_site":5,"horizon":"30m","seed":1}`,
		`{"arch":"space-ground","satellites":108,"rate_per_hour_per_site":5,"horizon":"30m","seed":2}`,
	} {
		resp := postTraffic(t, srv.URL, body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	if propagations != 1 {
		t.Fatalf("expected one catalog propagation for a shared horizon, got %d", propagations)
	}

	resp := postTraffic(t, srv.URL, `{"arch":"space-ground","satellites":24,"rate_per_hour_per_site":5,"horizon":"45m","seed":1}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if propagations != 2 {
		t.Fatalf("expected a second propagation for a new horizon, got %d", propagations)
	}
}

// TestDaemonEphemerisCacheBound pins the LRU behind the shared cache: past
// maxEphemerisCaches distinct horizons the least recently used cache is
// dropped, and re-querying a retained horizon reuses its cache instead of
// propagating again.
func TestDaemonEphemerisCacheBound(t *testing.T) {
	propagations := 0
	propagationHook = func(int) { propagations++ }
	defer func() { propagationHook = nil }()

	d := newTestDaemon(t)
	horizon := func(i int) time.Duration { return time.Duration(i+1) * time.Minute }
	query := func(i int) *EphemerisCache {
		t.Helper()
		c, err := d.ephemeris(horizon(i))
		if err != nil {
			t.Fatal(err)
		}
		if len(d.caches) > maxEphemerisCaches {
			t.Fatalf("%d caches, want at most %d", len(d.caches), maxEphemerisCaches)
		}
		return c
	}
	built := make([]*EphemerisCache, maxEphemerisCaches+1)
	for i := range built {
		built[i] = query(i)
	}
	if propagations != maxEphemerisCaches+1 {
		t.Fatalf("%d propagations for %d distinct horizons", propagations, maxEphemerisCaches+1)
	}

	// Horizon 1 is now the least recently used; re-querying it is a hit
	// and makes horizon 2 the next to go.
	if query(1) != built[1] || propagations != maxEphemerisCaches+1 {
		t.Fatalf("re-queried horizon %v missed the cache", horizon(1))
	}
	// Horizon 0 was evicted, so it propagates again and evicts horizon 2.
	if query(0) == built[0] || propagations != maxEphemerisCaches+2 {
		t.Fatalf("evicted horizon %v was not rebuilt", horizon(0))
	}
	if query(1) != built[1] || query(maxEphemerisCaches) != built[maxEphemerisCaches] {
		t.Fatal("a recently used horizon lost its cache")
	}
	if query(2) == built[2] || propagations != maxEphemerisCaches+3 {
		t.Fatalf("least recently used horizon %v survived", horizon(2))
	}
}

// TestDaemonGracefulDrain pins the shutdown contract `qntnsim serve-daemon`
// relies on: http.Server.Shutdown (the SIGTERM path) waits for an
// in-flight query to stream its full response before returning.
func TestDaemonGracefulDrain(t *testing.T) {
	d := newTestDaemon(t)
	srv := httptest.NewServer(d.Handler())
	// No deferred Close: Shutdown below is the teardown under test.

	type result struct {
		status int
		body   []byte
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/v1/traffic", "application/json",
			strings.NewReader(`{"arch":"space-ground","satellites":54,"rate_per_hour_per_site":20,"horizon":"2h","seed":3}`))
		if err != nil {
			done <- result{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		done <- result{status: resp.StatusCode, body: body, err: err}
	}()

	// Let the query reach the handler, then drain.
	for i := 0; i < 1000 && d.reg.Counter("daemon_queries_total").Value() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Config.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}

	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight query failed during drain: %v", r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("in-flight query status %d", r.status)
	}
	if _, err := telemetry.ReadNDJSON(bytes.NewReader(r.body)); err != nil {
		t.Fatalf("drained response truncated: %v", err)
	}
}

// TestDaemonAdmissionHitsEphemeris: the daemon propagates its shared cache
// on admissionGrid, so every instant a query's admission samples is a
// cache hit for every satellite, and the cache holds no other instant.
func TestDaemonAdmissionHitsEphemeris(t *testing.T) {
	d := newTestDaemon(t)
	for _, horizon := range []time.Duration{30 * time.Minute, 45*time.Minute + 10*time.Second} {
		cache, err := d.ephemeris(horizon)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := cache.Scenario(24)
		if err != nil {
			t.Fatal(err)
		}
		ad, err := newAdmission(sc, admissionGrid(sc.Params, horizon), queueUnserved)
		if err != nil {
			t.Fatal(err)
		}
		grid := ad.ts.grid
		ad.close()
		for _, nd := range sc.relays {
			sat := nd.(*cachedSatellite)
			if len(sat.index) != grid.steps {
				t.Fatalf("horizon %v: %s cached at %d instants, admission samples %d", horizon, sat.id, len(sat.index), grid.steps)
			}
			for k := 0; k < grid.steps; k++ {
				if _, ok := sat.index[grid.at(k)]; !ok {
					t.Fatalf("horizon %v: admission instant %v of %s is a cache miss", horizon, grid.at(k), sat.id)
				}
			}
		}
	}
}
