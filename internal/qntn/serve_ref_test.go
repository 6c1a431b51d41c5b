package qntn

import (
	"fmt"
	"time"

	"qntn/internal/netsim"
	"qntn/internal/orbit"
	"qntn/internal/routing"
	"qntn/internal/stats"
	"qntn/internal/telemetry"
)

// Test-only hooks for the external differential suite
// (serve_ref_oracle_test.go), which needs the scenario archetypes of
// package oracletest and so cannot live in this package.
var (
	RunServeReference    = runServeReference
	RunServeDESReference = runServeDESReference
)

// runServeReference is the retired stepped RunServe body, kept as the
// differential oracle for RunServe on the admission core: pooled GraphInto
// snapshots at SampleTimes, Algorithm 1 tables converged by one
// Bellman-Ford scratch (the routing specification the core's per-source
// trees are pinned to), and the protocol-on and protocol-off branches. It
// always steps; the event-driven dispatch that preceded it is dropped, and
// so is its relaxation-round telemetry, which the core does not have.
func runServeReference(sc *Scenario, cfg ServeConfig) (*ServeResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	res := &ServeResult{Config: cfg}
	wl, err := NewWorkload(sc, cfg.Seed)
	if err != nil {
		return nil, err
	}

	// SampleTimes is the single source of truth for the instants this run
	// evaluates — sweeps precompute the same list to propagate ephemerides
	// exactly there, so duplicating its stepGap fallback here would let the
	// two drift apart.
	times := cfg.SampleTimes(sc.Params)

	// One graph and one Bellman-Ford scratch serve every step: the node
	// set is fixed, so per-step work reuses their storage. pe is nil unless
	// the entanglement-protocol layer is enabled; the nil branch below is
	// the pre-protocol code verbatim.
	graph := routing.NewGraph()
	var scratch routing.BellmanFordScratch
	pe := sc.newProtoEval()
	var adj routing.Adjacency

	tel := sc.tel
	var label string
	if tel != nil {
		label = sc.runLabel("serve", cfg.Seed)
	}

	var fids, etas []float64
	for step, at := range times {
		var st netsim.SnapshotStats
		if err := sc.GraphInto(graph, at, &st); err != nil {
			return nil, err
		}
		adj.Load(graph, disjointCost)
		tables := scratch.Run(graph, sc.Params.RoutingEpsilon)
		stepServed, stepDropped := 0, 0
		var stepFidSum float64
		for _, req := range wl.Batch(cfg.RequestsPerStep) {
			out := netsim.Outcome{Request: req, At: at}
			if tables.Reachable(req.Src, req.Dst) {
				path, err := tables.Path(req.Src, req.Dst)
				if err != nil {
					return nil, fmt.Errorf("qntn: step %d request %d: %w", step, req.ID, err)
				}
				if pe != nil {
					po, err := pe.outcome(&adj, path, req, at)
					if err != nil {
						return nil, fmt.Errorf("qntn: step %d request %d: %w", step, req.ID, err)
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
					} else {
						stepDropped++
					}
				} else {
					hopEtas, err := graph.EdgeEtas(path)
					if err != nil {
						return nil, fmt.Errorf("qntn: step %d request %d: %w", step, req.ID, err)
					}
					out.Served = true
					out.Path = path
					out.EndToEndEta = product(hopEtas)
					out.Fidelity = PathFidelity(hopEtas, sc.Params.FidelityModel)
					fids = append(fids, out.Fidelity)
					etas = append(etas, out.EndToEndEta)
					stepServed++
					stepFidSum += out.Fidelity
					if tel != nil {
						tel.fidelity.Observe(out.Fidelity)
					}
				}
			} else {
				stepDropped++
			}
			res.Metrics.Record(out)
		}
		if tel != nil {
			tel.requestsServed.Add(uint64(stepServed))
			tel.requestsDropped.Add(uint64(stepDropped))
			sc.recordStepEvent(label, step, at, &st, func(e *telemetry.Event) {
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
	return res, nil
}

// runServeDESReference is the retired RunServeDES body, kept verbatim as
// the differential oracle for its fold into RunServe: topology-update
// events on the simulator (simulator_test.go), a fresh sc.Routes snapshot
// and BellmanFord per step, and the heralding-latency evaluator inline. Its
// memory T2 and per-hop processing delay, since deleted, read as zero here:
// at zero the retired time-aware fidelity was PathFidelity exactly, and
// the latency 2L/c. It covers protocol-off runs only.
func runServeDESReference(sc *Scenario, cfg ServeConfig) (*ServeDESResult, error) {
	if cfg.RequestsPerStep <= 0 || cfg.Steps <= 0 {
		return nil, fmt.Errorf("qntn: serve config requires positive requests and steps")
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = orbit.Day
	}
	res := &ServeDESResult{}
	res.Config = cfg
	wl, err := NewWorkload(sc, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// SampleTimes is the shared source of the per-step instants; deriving
	// the step gap locally once dropped every sample past the horizon when
	// the Horizon/Steps division underflowed and the StepInterval fallback
	// pushed the samples beyond it (see TestServeDESSamplesAllSteps).
	times := cfg.SampleTimes(sc.Params)

	var fids, etas, latencies []float64
	var simErr error
	sim := newSimulator()
	serveStep := func(s *simulator) {
		at := s.Now()
		tables, graph, err := sc.Routes(at)
		if err != nil {
			simErr = err
			s.Stop()
			return
		}
		for _, req := range wl.Batch(cfg.RequestsPerStep) {
			out := netsim.Outcome{Request: req, At: at}
			if tables.Reachable(req.Src, req.Dst) {
				path, err := tables.Path(req.Src, req.Dst)
				if err != nil {
					simErr = err
					s.Stop()
					return
				}
				hopEtas, err := graph.EdgeEtas(path)
				if err != nil {
					simErr = err
					s.Stop()
					return
				}
				length, err := sc.PathLengthM(path, at)
				if err != nil {
					simErr = err
					s.Stop()
					return
				}
				latency := HeraldingLatency(length)
				fid := PathFidelity(hopEtas, sc.Params.FidelityModel)
				out.Served = true
				out.Path = path
				out.EndToEndEta = product(hopEtas)
				out.PathLengthM = length
				out.Latency = latency
				out.Fidelity = fid
				fids = append(fids, fid)
				etas = append(etas, out.EndToEndEta)
				latencies = append(latencies, latency.Seconds())
				if latency > res.MaxLatency {
					res.MaxLatency = latency
				}
			}
			res.Metrics.Record(out)
		}
	}
	for _, at := range times {
		if err := sim.Schedule(at, "serve-step", serveStep); err != nil {
			return nil, err
		}
	}
	runUntil := cfg.Horizon
	if last := times[len(times)-1]; last > runUntil {
		runUntil = last
	}
	if err := sim.Run(runUntil); err != nil {
		return nil, err
	}
	if simErr != nil {
		return nil, simErr
	}

	res.ServedPercent = 100 * res.Metrics.ServedFraction()
	res.MeanFidelity = res.Metrics.MeanServedFidelity()
	res.FidelitySummary = stats.Summarize(fids)
	res.MeanPathEta = stats.Mean(etas)
	if len(latencies) > 0 {
		res.MeanLatency = time.Duration(stats.Mean(latencies) * float64(time.Second))
	}
	return res, nil
}
