package qntn

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"qntn/internal/netsim"
	"qntn/internal/runner"
	"qntn/internal/stats"
)

// DiurnalProfile shapes the traffic rate over the day as a raised cosine:
// rate(t) = base · (1 + Amplitude·cos(2π·(hour(t) − PeakHour)/24)). The
// zero value is a flat profile.
type DiurnalProfile struct {
	// Amplitude is the relative swing in [0, 1): 0.5 means the peak rate
	// is 1.5× the base and the trough 0.5×.
	Amplitude float64
	// PeakHour is the hour of simulated day the rate peaks, in [0, 24).
	PeakHour float64
}

// Multiplier returns the rate multiplier at simulated time t.
func (d DiurnalProfile) Multiplier(t time.Duration) float64 {
	if d.Amplitude == 0 {
		return 1
	}
	return 1 + d.Amplitude*math.Cos(2*math.Pi*(t.Hours()-d.PeakHour)/24)
}

// TrafficConfig parameterizes the request-level synthetic traffic engine:
// every ground site emits its own Poisson arrival stream of inter-LAN
// requests, modulated by a shared diurnal profile.
type TrafficConfig struct {
	// RatePerHourPerSite is the base mean arrival rate of each ground
	// site's stream.
	RatePerHourPerSite float64
	// Diurnal modulates the instantaneous rate over the day.
	Diurnal DiurnalProfile
	// Horizon is the simulated period; default one day.
	Horizon time.Duration
	Seed    int64
	// Workers bounds the generation fan-out (0 = GOMAXPROCS). Streams are
	// generated per site from independent seeds and merged in a canonical
	// order, so the result is identical for any worker count.
	Workers int
}

// withDefaults applies the one-day default horizon.
func (cfg TrafficConfig) withDefaults() TrafficConfig {
	if cfg.Horizon <= 0 {
		cfg.Horizon = 24 * time.Hour
	}
	return cfg
}

// validate checks the traffic shape.
func (cfg TrafficConfig) validate() error {
	switch {
	case !(cfg.RatePerHourPerSite > 0) || math.IsInf(cfg.RatePerHourPerSite, 1):
		return fmt.Errorf("qntn: traffic rate must be positive and finite, got %g", cfg.RatePerHourPerSite)
	case !(cfg.Diurnal.Amplitude >= 0 && cfg.Diurnal.Amplitude < 1):
		return fmt.Errorf("qntn: diurnal amplitude %g outside [0,1)", cfg.Diurnal.Amplitude)
	case !(cfg.Diurnal.PeakHour >= 0 && cfg.Diurnal.PeakHour < 24):
		return fmt.Errorf("qntn: diurnal peak hour %g outside [0,24)", cfg.Diurnal.PeakHour)
	}
	return nil
}

// trafficArrival is one request in the merged arrival stream.
type trafficArrival struct {
	at   time.Duration
	site int // canonical site index, the merge tie-breaker
	req  netsim.Request
}

// trafficSite is one ground host together with its eligible destinations
// (every ground host in a different LAN), both in canonical order.
type trafficSite struct {
	id   string
	dsts []string
}

// trafficSites enumerates the scenario's ground sites in canonical order:
// LANs in declaration order, host IDs in Table I order within each.
func (sc *Scenario) trafficSites() ([]trafficSite, error) {
	hosts, err := sc.interLANHosts("traffic")
	if err != nil {
		return nil, err
	}
	tab := &sc.table
	sites := make([]trafficSite, len(hosts))
	for i, h := range hosts {
		sites[i].id = tab.nodes[h].ID()
		for _, o := range hosts {
			if tab.lan[o] != tab.lan[h] {
				sites[i].dsts = append(sites[i].dsts, tab.nodes[o].ID())
			}
		}
	}
	return sites, nil
}

// siteRNGs pools the per-site generators: a source carries about 7 KB of
// state, and every traffic run samples one stream per site.
var siteRNGs sync.Pool

// siteStream samples one ground site's arrival stream: a Poisson process
// at the profile's peak rate thinned down to the instantaneous diurnal
// rate (Lewis–Shedler), with a uniformly random inter-LAN destination per
// accepted arrival. The RNG is seeded from
// runner.TaskSeed(cfg.Seed, runner.FNV64a(site.id)), so each stream is a
// pure function of (config, site ID): adding or removing other sites, or
// changing the worker count, never perturbs it. The generator draws the
// stream of rand.New(rand.NewSource(seed)), but over a runner.LazySource,
// which seeds only the register words the stream reads: a site draws a few
// dozen values, and math/rand's Seed would fill all 607 words first. A
// pooled generator is re-seeded with (*rand.Rand).Seed, which leaves it in
// exactly that starting state.
func siteStream(site trafficSite, index int, cfg TrafficConfig) []trafficArrival {
	seed := runner.TaskSeed(cfg.Seed, runner.FNV64a(site.id))
	rng, ok := siteRNGs.Get().(*rand.Rand)
	if ok {
		rng.Seed(seed)
	} else {
		rng = rand.New(runner.NewLazySource(seed))
	}
	out := sampleSiteStream(rng, site, index, cfg)
	siteRNGs.Put(rng)
	return out
}

// maxSiteStreamPrealloc caps the arrivals a site stream reserves room for
// up front; a longer stream grows by append.
const maxSiteStreamPrealloc = 1 << 16

// siteStreamCap is the capacity a site stream reserves: the expected number
// of peak-rate proposals, which bounds the expected accepted count, clamped
// so that a huge rate from a library caller cannot ask for an absurd (or,
// past the int range, negative) capacity. A NaN or non-positive expectation
// reserves nothing.
func siteStreamCap(cfg TrafficConfig) int {
	n := min(cfg.RatePerHourPerSite*(1+cfg.Diurnal.Amplitude)*cfg.Horizon.Hours(), maxSiteStreamPrealloc)
	if !(n > 0) {
		return 0
	}
	return int(math.Ceil(n))
}

// sampleSiteStream draws siteStream's arrivals from a generator already
// seeded for the site.
func sampleSiteStream(rng *rand.Rand, site trafficSite, index int, cfg TrafficConfig) []trafficArrival {
	peakMult := 1 + cfg.Diurnal.Amplitude
	meanGapS := 3600 / (cfg.RatePerHourPerSite * peakMult)
	out := make([]trafficArrival, 0, siteStreamCap(cfg))
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() * meanGapS * float64(time.Second))
		if at >= cfg.Horizon {
			break
		}
		if rng.Float64()*peakMult > cfg.Diurnal.Multiplier(at) {
			continue // thinned: above the instantaneous rate
		}
		dst := site.dsts[rng.Intn(len(site.dsts))]
		out = append(out, trafficArrival{at: at, site: index, req: netsim.Request{Src: site.id, Dst: dst}})
	}
	return out
}

// generateTraffic samples every site's stream (fanned out over the worker
// pool) and merges them with mergeArrivals.
func generateTraffic(sites []trafficSite, cfg TrafficConfig) ([]trafficArrival, error) {
	perSite := make([][]trafficArrival, len(sites))
	err := runner.Map(context.Background(), len(sites), cfg.Workers, func(_ context.Context, i int) error {
		perSite[i] = siteStream(sites[i], i, cfg)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mergeArrivals(perSite), nil
}

// mergeArrivals merges per-site streams, given in site order, into one
// deterministic arrival order: time-sorted, ties broken by canonical site
// index, per-site order preserved (the sort is stable, and a site's
// same-instant arrivals keep their draw order). Request IDs number the
// merged stream sequentially from 1.
func mergeArrivals(perSite [][]trafficArrival) []trafficArrival {
	n := 0
	for _, s := range perSite {
		n += len(s)
	}
	merged := make([]trafficArrival, 0, n)
	for _, s := range perSite {
		merged = append(merged, s...)
	}
	slices.SortStableFunc(merged, func(a, b trafficArrival) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.site, b.site)
	})
	for i := range merged {
		merged[i].req.ID = i + 1
	}
	return merged
}

// TrafficResult summarizes one traffic-engine run.
type TrafficResult struct {
	Config TrafficConfig
	// Sites is the number of ground sites emitting streams.
	Sites int
	// Arrivals counts generated requests; Served those delivered within
	// the horizon; QueuedAtEnd the censored tail still waiting.
	Arrivals    int
	Served      int
	QueuedAtEnd int
	// ServedImmediately counts requests delivered by the arrival handler
	// (serve-site classification, as in ArrivalResult).
	ServedImmediately int
	// RequestsEvaluated counts admission attempts: one per arrival plus
	// one per queued request per topology drain — the daemon's throughput
	// unit.
	RequestsEvaluated int
	// Steps is the number of topology updates over the horizon.
	Steps int
	// Wait statistics over served requests.
	MeanWait time.Duration
	MaxWait  time.Duration
	// MeanFidelity at the moment of service.
	MeanFidelity float64
	// MaxQueueDepth is the largest number of requests simultaneously
	// waiting.
	MaxQueueDepth int
}

// ServedPercent returns the delivered fraction.
func (r *TrafficResult) ServedPercent() float64 {
	if r.Arrivals == 0 {
		return 0
	}
	return 100 * float64(r.Served) / float64(r.Arrivals)
}

// RunTraffic executes the traffic engine against the scenario: the merged
// per-site arrival streams feed the same batched admission core as
// RunArrivals — one topology update per step on the backend
// Params.EventDriven selects, per-source shortest-path trees, FIFO drain.
// Instrumented scenarios step (newTopoStepper's telemetry fallback), count
// the run's requests once at its end (admission.report) and record one
// event per topology step on the collector's sink (admission.closeWindow:
// snapshot counters, routing work, and the arrivals, served requests and
// queue depth of the window the step opens), which is what the serve
// daemon streams back as NDJSON. Everything is seeded; a run is a pure
// function of (scenario, config).
func (sc *Scenario) RunTraffic(cfg TrafficConfig) (*TrafficResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sites, err := sc.trafficSites()
	if err != nil {
		return nil, err
	}
	arrivals, err := generateTraffic(sites, cfg)
	if err != nil {
		return nil, err
	}
	res := &TrafficResult{Config: cfg, Sites: len(sites), Arrivals: len(arrivals)}

	ad, err := newAdmission(sc, admissionGrid(sc.Params, cfg.Horizon), queueUnserved)
	if err != nil {
		return nil, err
	}
	defer ad.close()
	if err := ad.run(arrivalList(arrivals), sc.runLabel("traffic", cfg.Seed)); err != nil {
		return nil, err
	}

	res.Steps = ad.ts.grid.steps
	res.Served = ad.served
	res.ServedImmediately = ad.immediate
	res.RequestsEvaluated = ad.evaluated
	res.QueuedAtEnd = len(ad.queue)
	res.MaxQueueDepth = ad.maxQueue
	res.MaxWait = ad.maxWait
	res.MeanWait = secs(stats.Mean(ad.waits))
	res.MeanFidelity = stats.Mean(ad.fids)
	return res, nil
}
