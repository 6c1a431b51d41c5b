package qntn

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"qntn/internal/telemetry"
)

// testClock is a deterministic wall clock advancing one second per read,
// so throughput gauges get a nonzero elapsed time without real sleeping.
func testClock() func() time.Time {
	var ticks int
	return func() time.Time {
		ticks++
		return time.Unix(int64(ticks), 0)
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

	queries := []struct {
		body  string
		build func() (*Scenario, error)
		cfg   TrafficConfig
	}{
		{
			body:  `{"arch":"space-ground","satellites":36,"rate_per_hour_per_site":10,"diurnal_amplitude":0.5,"peak_hour":18,"horizon":"1h","seed":4,"workers":2}`,
			build: func() (*Scenario, error) { return NewSpaceGround(36, DefaultParams()) },
			cfg: TrafficConfig{
				RatePerHourPerSite: 10,
				Diurnal:            DiurnalProfile{Amplitude: 0.5, PeakHour: 18},
				Horizon:            time.Hour,
				Seed:               4,
				Workers:            2,
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

// TestDaemonRejectsBadQueries covers the 4xx surface: malformed JSON,
// unknown fields (strict decoding), unknown architectures, bad or
// over-long horizons, invalid traffic shapes and oversized bodies — all
// recorded on the error counter. No rejected query may build an ephemeris
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
		{`{"arch":"air-ground","rate_per_hour_per_site":10,"diurnal_amplitude":1.5}`, http.StatusBadRequest},
		{`{"arch":"space-ground","satellites":108,"rate_per_hour_per_site":10,"horizon":"8760h"}`, http.StatusBadRequest},
		{`{"arch":"space-ground","satellites":6,"rate_per_hour_per_site":10,"horizon":"24h0m0.000000001s"}`, http.StatusBadRequest},
		{`{"arch":"hybrid","satellites":6,"rate_per_hour_per_site":10,"horizon":"48h"}`, http.StatusBadRequest},
		{`{"arch":"air-ground","rate_per_hour_per_site":10,"horizon":"25h"}`, http.StatusBadRequest},
		{`{"arch":"` + strings.Repeat("a", maxQueryBytes) + `","rate_per_hour_per_site":10}`, http.StatusRequestEntityTooLarge},
		{`{` + strings.Repeat(" ", 2*maxQueryBytes) + `}`, http.StatusRequestEntityTooLarge},
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
