package qntn

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"qntn/internal/orbit"
	"qntn/internal/telemetry"
)

// Daemon is the long-running serve process behind `qntnsim serve-daemon`:
// an HTTP/JSON front end over the traffic engine. Queries share one
// ephemeris cache per horizon — the full 108-satellite Table II catalog is
// propagated once at the query's topology instants and every subsequent
// constellation size is a prefix slice of it — and each query's telemetry
// is folded into the daemon-lifetime registry served at /metrics.
//
// The wall clock is injected (the project's detrand invariant: nothing
// under internal/ reads time.Now directly), so the daemon itself stays
// deterministic under test; only the throughput gauge consumes it.
type Daemon struct {
	params Params
	clock  func() time.Time
	reg    *telemetry.Registry
	mux    *http.ServeMux

	queries     *telemetry.Counter
	queryErrors *telemetry.Counter
	evaluated   *telemetry.Counter
	served      *telemetry.Counter
	inflight    *telemetry.Gauge
	evalPerSec  *telemetry.Gauge

	mu     sync.Mutex
	caches map[string]*EphemerisCache
}

// Daemon query limits. A query's ephemeris cache holds the whole catalog at
// every topology instant of its horizon and is kept for the daemon's
// lifetime, so the horizon is capped at one day (the engine's default); a
// traffic query is a few hundred bytes of JSON, so bodies past
// maxQueryBytes are refused before decoding.
const (
	maxQueryHorizon = orbit.Day
	maxQueryBytes   = 64 << 10
)

// NewDaemon validates the parameters and assembles the daemon's routes.
// clock supplies wall time for the throughput gauge; pass time.Now from
// the command layer.
func NewDaemon(p Params, clock func() time.Time) (*Daemon, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if clock == nil {
		return nil, fmt.Errorf("qntn: daemon needs a clock")
	}
	reg := telemetry.NewRegistry()
	d := &Daemon{
		params:      p,
		clock:       clock,
		reg:         reg,
		mux:         http.NewServeMux(),
		queries:     reg.Counter("daemon_queries_total"),
		queryErrors: reg.Counter("daemon_query_errors_total"),
		evaluated:   reg.Counter("daemon_requests_evaluated_total"),
		served:      reg.Counter("daemon_requests_served_total"),
		inflight:    reg.Gauge("daemon_inflight_queries"),
		evalPerSec:  reg.Gauge("daemon_requests_evaluated_per_sec"),
	}
	d.mux.HandleFunc("POST /v1/traffic", d.handleTraffic)
	d.mux.HandleFunc("GET /metrics", d.handleMetrics)
	d.mux.HandleFunc("GET /healthz", d.handleHealthz)
	return d, nil
}

// Handler returns the daemon's HTTP handler; mount it on an http.Server.
func (d *Daemon) Handler() http.Handler { return d.mux }

// Registry returns the daemon-lifetime metric registry (the /metrics
// source).
func (d *Daemon) Registry() *telemetry.Registry { return d.reg }

// RequestsEvaluated returns the lifetime count of admission attempts
// across all queries — the throughput benchmark's numerator.
func (d *Daemon) RequestsEvaluated() uint64 { return d.evaluated.Value() }

// TrafficQuery is the request body of POST /v1/traffic: a scenario plus a
// traffic configuration. Horizon is a Go duration string ("6h", "90m");
// empty means the engine's one-day default.
type TrafficQuery struct {
	// Arch selects the architecture: "space-ground" (default), "air-ground"
	// or "hybrid".
	Arch string `json:"arch,omitempty"`
	// Satellites is the constellation size for the space-ground and hybrid
	// architectures.
	Satellites         int     `json:"satellites,omitempty"`
	RatePerHourPerSite float64 `json:"rate_per_hour_per_site"`
	DiurnalAmplitude   float64 `json:"diurnal_amplitude,omitempty"`
	PeakHour           float64 `json:"peak_hour,omitempty"`
	Horizon            string  `json:"horizon,omitempty"`
	Seed               int64   `json:"seed,omitempty"`
	Workers            int     `json:"workers,omitempty"`
}

// ephemeris returns the shared satellite cache for the given horizon,
// building it on first use: the full catalog propagated at every topology
// instant the query will evaluate.
func (d *Daemon) ephemeris(horizon time.Duration) (*EphemerisCache, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	key := horizon.String()
	if c, ok := d.caches[key]; ok {
		return c, nil
	}
	step := d.params.TopologyStep()
	var times []time.Duration
	for t := time.Duration(0); t <= horizon; t += step {
		times = append(times, t)
	}
	c, err := NewEphemerisCache(orbit.MaxPaperSatellites, d.params, times)
	if err != nil {
		return nil, err
	}
	if d.caches == nil {
		d.caches = make(map[string]*EphemerisCache)
	}
	d.caches[key] = c
	return c, nil
}

// prepare resolves a query into a runnable (scenario, traffic config)
// pair. Space-ground scenarios assemble from the shared ephemeris cache;
// the cached positions are the propagator's own output, so cached and
// freshly built scenarios produce byte-identical results.
func (d *Daemon) prepare(q TrafficQuery) (*Scenario, TrafficConfig, error) {
	cfg := TrafficConfig{
		RatePerHourPerSite: q.RatePerHourPerSite,
		Diurnal:            DiurnalProfile{Amplitude: q.DiurnalAmplitude, PeakHour: q.PeakHour},
		Seed:               q.Seed,
		Workers:            q.Workers,
	}
	if q.Horizon != "" {
		h, err := time.ParseDuration(q.Horizon)
		if err != nil {
			return nil, cfg, fmt.Errorf("qntn: traffic horizon: %w", err)
		}
		cfg.Horizon = h
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, cfg, err
	}
	if cfg.Horizon > maxQueryHorizon {
		return nil, cfg, fmt.Errorf("qntn: traffic horizon %v exceeds the daemon limit %v", cfg.Horizon, maxQueryHorizon)
	}
	switch q.Arch {
	case "", "space-ground":
		if q.Satellites < 1 || q.Satellites > orbit.MaxPaperSatellites {
			return nil, cfg, fmt.Errorf("qntn: space-ground size %d outside [1, %d]", q.Satellites, orbit.MaxPaperSatellites)
		}
		cache, err := d.ephemeris(cfg.Horizon)
		if err != nil {
			return nil, cfg, err
		}
		sc, err := cache.Scenario(q.Satellites)
		if err != nil {
			return nil, cfg, err
		}
		return sc, cfg, nil
	case "air-ground":
		sc, err := NewAirGround(d.params)
		return sc, cfg, err
	case "hybrid":
		sc, err := NewHybrid(q.Satellites, d.params)
		return sc, cfg, err
	default:
		return nil, cfg, fmt.Errorf("qntn: unknown architecture %q (want space-ground, air-ground or hybrid)", q.Arch)
	}
}

// fail records a query error and writes the HTTP error response.
func (d *Daemon) fail(w http.ResponseWriter, code int, err error) {
	d.queryErrors.Inc()
	http.Error(w, err.Error(), code)
}

// handleTraffic runs one traffic query and streams the per-step event
// records back as NDJSON — the same strict codec the library's telemetry
// flush uses, so daemon output is byte-identical to an in-process run.
// Summary figures ride in X-Qntn-* response headers.
func (d *Daemon) handleTraffic(w http.ResponseWriter, r *http.Request) {
	d.inflight.Add(1)
	defer d.inflight.Add(-1)
	d.queries.Inc()

	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBytes))
	dec.DisallowUnknownFields()
	var q TrafficQuery
	if err := dec.Decode(&q); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		d.fail(w, code, fmt.Errorf("qntn: traffic query: %w", err))
		return
	}
	sc, cfg, err := d.prepare(q)
	if err != nil {
		d.fail(w, http.StatusBadRequest, err)
		return
	}
	col := telemetry.NewCollector()
	sc.Instrument(col)
	start := d.clock()
	res, err := sc.RunTraffic(cfg)
	if err != nil {
		d.fail(w, http.StatusInternalServerError, err)
		return
	}
	elapsed := d.clock().Sub(start)

	d.reg.Merge(col.Registry)
	d.evaluated.Add(uint64(res.RequestsEvaluated))
	d.served.Add(uint64(res.Served))
	if s := elapsed.Seconds(); s > 0 {
		d.evalPerSec.Set(int64(float64(res.RequestsEvaluated) / s))
	}

	h := w.Header()
	h.Set("Content-Type", "application/x-ndjson")
	h.Set("X-Qntn-Sites", strconv.Itoa(res.Sites))
	h.Set("X-Qntn-Arrivals", strconv.Itoa(res.Arrivals))
	h.Set("X-Qntn-Served", strconv.Itoa(res.Served))
	h.Set("X-Qntn-Served-Immediately", strconv.Itoa(res.ServedImmediately))
	h.Set("X-Qntn-Requests-Evaluated", strconv.Itoa(res.RequestsEvaluated))
	h.Set("X-Qntn-Steps", strconv.Itoa(res.Steps))
	if err := col.Events.WriteNDJSON(w); err != nil {
		// Headers and part of the body may be gone already; nothing to
		// repair mid-stream. The error counter still records it.
		d.queryErrors.Inc()
	}
}

// handleMetrics serves the daemon-lifetime registry in Prometheus text
// format.
func (d *Daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := d.reg.WritePrometheus(w); err != nil {
		d.queryErrors.Inc()
	}
}

// handleHealthz is the liveness probe.
func (d *Daemon) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}
