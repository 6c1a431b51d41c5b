package qntn

import (
	"fmt"
	"math"
	"time"

	"qntn/internal/netsim"
	"qntn/internal/orbit"
	"qntn/internal/routing"
	"qntn/internal/stats"
	"qntn/internal/telemetry"
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
// nanoseconds). The serve loop (RunServe and RunServeDES, on either
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

// RunServe executes the serve experiment against the scenario. At each
// step it snapshots the topology and attempts every request of the batch,
// routed under the paper's 1/(η+ε) cost from its source's shortest-path
// tree over the snapshot: a request is served when a path exists; its
// fidelity follows the scenario's FidelityModel applied to the path's
// per-hop transmissivities. Algorithm 1 (routing.BellmanFord, the paper's
// distance-vector protocol) stays the specification: the differential
// suite holds every served path DeepEqual to its tables' paths on every
// oracle archetype.
func (sc *Scenario) RunServe(cfg ServeConfig) (*ServeResult, error) {
	res := &ServeResult{}
	if err := sc.runServe(cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}

// runServe is the serve experiment's one per-step loop into res, shared by
// RunServe and RunServeDES over either topology backend and either protocol
// setting; routeScorer decides each routed request.
func (sc *Scenario) runServe(cfg ServeConfig, res *ServeResult) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	cfg = cfg.withDefaults()
	res.Config = cfg
	// Every request records exactly one outcome; validate bounded the
	// product.
	res.Metrics.Outcomes = make([]netsim.Outcome, 0, cfg.Steps*cfg.RequestsPerStep)
	wl, err := NewWorkload(sc, cfg.Seed)
	if err != nil {
		return err
	}

	// The grid's instants are exactly SampleTimes' — sweeps precompute that
	// list to propagate ephemerides there, so both derive the spacing from
	// the single stepGap definition.
	grid := sampleGrid{gap: cfg.stepGap(sc.Params), steps: cfg.Steps}
	ts, err := sc.newTopoStepper(grid, false)
	if err != nil {
		return err
	}
	defer ts.close()

	// One pooled set of per-source trees serves every step: the node set
	// is fixed, so per-step work reuses its storage, and a tree grows only
	// until the batch's destinations from its source have settled.
	graph := ts.g
	var trees routing.SourceTrees
	cost := routing.InverseEtaCost(sc.Params.RoutingEpsilon)
	rs := sc.newRouteScorer()

	tel := sc.tel
	var label string
	if tel != nil {
		label = sc.serveLabel(cfg.Seed)
	}

	var fids, etas []float64
	for step := 0; step < grid.steps; step++ {
		if err := ts.step(step); err != nil {
			return err
		}
		trees.Load(graph, cost)
		rs.load(graph)
		at := grid.at(step)
		stepServed, stepDropped := 0, 0
		var stepFidSum float64
		for _, req := range wl.Batch(cfg.RequestsPerStep) {
			out := netsim.Outcome{Request: req, At: at}
			// A nil buffer makes the path its own allocation: out keeps it.
			path, reachable, err := trees.AppendPath(nil, req.Src, req.Dst)
			if err != nil {
				return fmt.Errorf("qntn: step %d request %d: %w", step, req.ID, err)
			}
			if reachable {
				po, err := rs.score(graph, path, req, at)
				if err != nil {
					return fmt.Errorf("qntn: step %d request %d: %w", step, req.ID, err)
				}
				if tel != nil {
					tel.addProto(&po)
				}
				if po.served {
					out.Served = true
					out.Path = path
					out.EndToEndEta = po.primaryEta
					out.Fidelity = po.fidelity
					fids = append(fids, out.Fidelity)
					etas = append(etas, out.EndToEndEta)
					stepServed++
					stepFidSum += out.Fidelity
					if tel != nil {
						tel.fidelity.Observe(out.Fidelity)
					}
				}
			}
			if !out.Served {
				stepDropped++
			}
			res.Metrics.Record(out)
		}
		if tel != nil {
			built, settled := trees.Trees(), trees.Settled()
			tel.treesBuilt.Add(uint64(built))
			tel.nodesSettled.Add(uint64(settled))
			tel.requestsServed.Add(uint64(stepServed))
			tel.requestsDropped.Add(uint64(stepDropped))
			sc.recordStepEvent(label, step, at, ts.stats, func(e *telemetry.Event) {
				e.TreesBuilt = int64(built)
				e.NodesSettled = int64(settled)
				e.Served = int64(stepServed)
				e.Dropped = int64(stepDropped)
				if stepServed > 0 {
					e.MeanFidelity = stepFidSum / float64(stepServed)
				}
			})
		}
	}
	res.ServedPercent = 100 * res.Metrics.ServedFraction()
	res.MeanFidelity = res.Metrics.MeanServedFidelity()
	res.FidelitySummary = stats.Summarize(fids)
	res.MeanPathEta = stats.Mean(etas)
	return nil
}
