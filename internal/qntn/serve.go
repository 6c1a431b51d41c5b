package qntn

import (
	"fmt"
	"math"
	"time"

	"qntn/internal/netsim"
	"qntn/internal/orbit"
	"qntn/internal/stats"
)

// ServeConfig parameterizes the paper's §IV-B/§IV-C experiments:
// RequestsPerStep random inter-LAN requests are attempted at each of Steps
// topology instants spread evenly over Horizon, and the served fraction and
// average fidelity of resolved requests are reported.
type ServeConfig struct {
	RequestsPerStep int           // paper: 100
	Steps           int           // paper: 100 "time steps of satellite movement"
	Horizon         time.Duration // period the steps sample; default one day
	Seed            int64
}

// DefaultServeConfig returns the paper's workload.
func DefaultServeConfig() ServeConfig {
	return ServeConfig{RequestsPerStep: 100, Steps: 100, Horizon: orbit.Day, Seed: 1}
}

// withDefaults returns the config with the paper's one-day horizon applied
// when none is set — the normalization RunServe performs, hoisted so sweeps
// can precompute the sample times it implies.
func (cfg ServeConfig) withDefaults() ServeConfig {
	if cfg.Horizon <= 0 {
		cfg.Horizon = orbit.Day
	}
	return cfg
}

// Validate checks the workload shape: positive requests and steps whose
// product fits an int. Every driver of a ServeConfig calls it first.
func (cfg ServeConfig) Validate() error {
	if cfg.RequestsPerStep <= 0 || cfg.Steps <= 0 {
		return fmt.Errorf("qntn: serve config requires positive requests and steps")
	}
	if cfg.Steps > math.MaxInt/cfg.RequestsPerStep {
		return fmt.Errorf("qntn: serve config of %d steps × %d requests overflows the request count", cfg.Steps, cfg.RequestsPerStep)
	}
	return nil
}

// stepGap returns the spacing between this config's sample instants:
// Horizon/Steps, falling back to the scenario's topology-update cadence
// when the integer division underflows to zero (Horizon shorter than Steps
// nanoseconds). RunServe's admission grid (RunServeDES included, on either
// topology backend) and the sweeps' SampleTimes all use this single
// definition; duplicating the fallback is how the DES path once drifted a
// step short (see the shared regression test).
func (cfg ServeConfig) stepGap(p Params) time.Duration {
	cfg = cfg.withDefaults()
	gap := cfg.Horizon / time.Duration(cfg.Steps)
	if gap <= 0 {
		gap = p.TopologyStep()
	}
	return gap
}

// SampleTimes returns the topology instants RunServe will evaluate under
// these parameters: Steps instants spread stepGap apart from t = 0. The
// config must pass Validate.
func (cfg ServeConfig) SampleTimes(p Params) []time.Duration {
	cfg = cfg.withDefaults()
	stepGap := cfg.stepGap(p)
	times := make([]time.Duration, cfg.Steps)
	for step := range times {
		times[step] = time.Duration(step) * stepGap
	}
	return times
}

// ServeResult aggregates one serve experiment.
type ServeResult struct {
	Config  ServeConfig
	Metrics netsim.Metrics
	// ServedPercent is the paper's "percentage of served requests".
	ServedPercent float64
	// MeanFidelity is the average end-to-end fidelity over served
	// requests.
	MeanFidelity float64
	// FidelitySummary describes the served-fidelity distribution.
	FidelitySummary stats.Summary
	// MeanPathEta is the average end-to-end transmissivity of served
	// requests.
	MeanPathEta float64
}

// RunServe executes the serve experiment against the scenario: a
// time-slotted request stream on the admission core. At each step the core
// snapshots the topology and attempts every request of the batch, routed
// under the paper's 1/(η+ε) cost from its source's shortest-path tree over
// the snapshot: a request is served when a path exists (and, with the
// protocol layer on, a pair survives it); its fidelity follows the
// scenario's FidelityModel applied to the path's per-hop transmissivities.
// A request not served at its instant is dropped, never queued. Algorithm 1
// (routing.BellmanFord, the paper's distance-vector protocol) stays the
// specification: the differential suite holds every served path DeepEqual
// to its tables' paths on every oracle archetype.
func (sc *Scenario) RunServe(cfg ServeConfig) (*ServeResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	wl, err := NewWorkload(sc, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// The grid's instants are exactly SampleTimes' — sweeps precompute that
	// list to propagate ephemerides there, so both derive the spacing from
	// the single stepGap definition.
	grid := sampleGrid{gap: cfg.stepGap(sc.Params), steps: cfg.Steps}
	ad, err := newAdmission(sc, grid, dropUnserved)
	if err != nil {
		return nil, err
	}
	defer ad.close()

	res := &ServeResult{Config: cfg}
	// Every request records exactly one outcome; Validate bounded the
	// product.
	res.Metrics.Outcomes = make([]netsim.Outcome, 0, cfg.Steps*cfg.RequestsPerStep)
	ad.outcomes = &res.Metrics
	src := slottedSource{wl: wl, grid: grid, perStep: cfg.RequestsPerStep}
	if err := ad.run(src, sc.runLabel("serve", cfg.Seed)); err != nil {
		return nil, err
	}
	etas := make([]float64, 0, ad.served)
	for _, o := range res.Metrics.Outcomes {
		if o.Served {
			etas = append(etas, o.EndToEndEta)
		}
	}
	res.ServedPercent = 100 * res.Metrics.ServedFraction()
	res.MeanFidelity = res.Metrics.MeanServedFidelity()
	res.FidelitySummary = stats.Summarize(ad.fids)
	res.MeanPathEta = stats.Mean(etas)
	return res, nil
}
