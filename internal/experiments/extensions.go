package experiments

import (
	"fmt"
	"time"

	"qntn/internal/fault"
	"qntn/internal/qntn"
	"qntn/internal/quantum"
	"qntn/internal/quantum/protocol"
)

// LatencyRow reports one (architecture, memory quality) cell of the
// time-aware extension study.
type LatencyRow struct {
	Architecture  string
	MemoryT2      time.Duration // 0 = ideal
	ServedPercent float64
	MeanFidelity  float64
	MeanLatency   time.Duration
	MaxLatency    time.Duration
}

// ExtensionLatencyStudy runs the event-driven serving experiment with
// heralding latency and memory dephasing — the paper's latency discussion
// (§II-D) made quantitative. For each architecture and each memory
// coherence time, it reports serving, fidelity, and latency statistics.
// Each row runs the protocol layer at that T2 with deterministic swaps and
// no purification, overriding p.Protocol, so nothing is drawn and every
// routed request is served.
func ExtensionLatencyStudy(p qntn.Params, nSats int, cfg qntn.ServeConfig, t2s []time.Duration) ([]LatencyRow, error) {
	type arch struct {
		name  string
		build func(qntn.Params) (*qntn.Scenario, error)
	}
	archs := []arch{
		{qntn.SpaceGround.String(), func(pp qntn.Params) (*qntn.Scenario, error) { return qntn.NewSpaceGround(nSats, pp) }},
		{qntn.AirGround.String(), qntn.NewAirGround},
	}
	var rows []LatencyRow
	for _, a := range archs {
		for _, t2 := range t2s {
			pp := p
			pp.Protocol = protocol.Config{MemoryT2: t2, SwapSuccess: 1, PurifyPaths: 1}
			sc, err := a.build(pp)
			if err != nil {
				return nil, err
			}
			res, err := sc.RunServeDES(cfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: latency study (%s, T2=%v): %w", a.name, t2, err)
			}
			rows = append(rows, LatencyRow{
				Architecture:  a.name,
				MemoryT2:      t2,
				ServedPercent: res.ServedPercent,
				MeanFidelity:  res.MeanFidelity,
				MeanLatency:   res.MeanLatency,
				MaxLatency:    res.MaxLatency,
			})
		}
	}
	return rows, nil
}

// PurificationRow reports one recurrence round of the purification
// extension study.
type PurificationRow struct {
	LinkEta float64
	Round   int // 0 = unpurified
	// Fidelity of the surviving pair after Round rounds.
	Fidelity float64
	// SuccessProbability of the round (1 for round 0).
	SuccessProbability float64
	// ExpectedPairsConsumed is the expected number of raw pairs needed
	// per surviving pair, accounting for postselection failures.
	ExpectedPairsConsumed float64
}

// ExtensionPurificationStudy quantifies how BBPSSW recurrence purification
// recovers the fidelity lost on low-transmissivity paths — the natural
// remedy for the space-ground fidelity deficit identified in
// EXPERIMENTS.md. For each end-to-end transmissivity it pumps the pair for
// the given number of rounds with fresh copies.
func ExtensionPurificationStudy(etas []float64, rounds int) ([]PurificationRow, error) {
	if rounds <= 0 {
		return nil, fmt.Errorf("experiments: purification study requires positive rounds")
	}
	var rows []PurificationRow
	for _, eta := range etas {
		pair, err := quantum.DistributeBellPair(eta)
		if err != nil {
			return nil, err
		}
		rows = append(rows, PurificationRow{
			LinkEta:               eta,
			Round:                 0,
			Fidelity:              quantum.BellFidelity(pair),
			SuccessProbability:    1,
			ExpectedPairsConsumed: 1,
		})
		results, err := quantum.PurifyLadder(pair, rounds, quantum.BBPSSW)
		if err != nil {
			return nil, err
		}
		// Expected raw-pair cost: each round consumes one fresh copy and
		// succeeds with probability p, so cost_k = (cost_{k-1} + 1)/p_k.
		cost := 1.0
		for r, res := range results {
			cost = (cost + 1) / res.SuccessProbability
			rows = append(rows, PurificationRow{
				LinkEta:               eta,
				Round:                 r + 1,
				Fidelity:              res.FidelityAfter,
				SuccessProbability:    res.SuccessProbability,
				ExpectedPairsConsumed: cost,
			})
		}
	}
	return rows, nil
}

// NightRow reports one (architecture, darkness policy) cell of the
// night-operation study.
type NightRow struct {
	Architecture    string
	NightOnly       bool
	CoveragePercent float64
	ServedPercent   float64
}

// ExtensionNightStudy quantifies the daylight-background constraint that
// the paper's ideal-conditions assumption waives: free-space quantum links
// in practice need a dark sky (Micius operates at night), so both
// architectures are re-evaluated with ground stations gated on darkness.
func ExtensionNightStudy(p qntn.Params, nSats int, cfg qntn.ServeConfig, coverageWindow time.Duration) ([]NightRow, error) {
	type arch struct {
		name  string
		build func(qntn.Params) (*qntn.Scenario, error)
	}
	archs := []arch{
		{qntn.SpaceGround.String(), func(pp qntn.Params) (*qntn.Scenario, error) { return qntn.NewSpaceGround(nSats, pp) }},
		{qntn.AirGround.String(), qntn.NewAirGround},
	}
	var rows []NightRow
	for _, a := range archs {
		for _, nightOnly := range []bool{false, true} {
			pp := p
			pp.RequireDarkness = nightOnly
			sc, err := a.build(pp)
			if err != nil {
				return nil, err
			}
			cov, err := sc.Coverage(coverageWindow)
			if err != nil {
				return nil, err
			}
			serve, err := sc.RunServe(cfg)
			if err != nil {
				return nil, err
			}
			rows = append(rows, NightRow{
				Architecture:    a.name,
				NightOnly:       nightOnly,
				CoveragePercent: cov.Percent(),
				ServedPercent:   serve.ServedPercent,
			})
		}
	}
	return rows, nil
}

// OutageRow reports one HAP reliability level.
type OutageRow struct {
	// Unavailability is the long-run fraction of time the HAP is down.
	Unavailability  float64
	CoveragePercent float64
	ServedPercent   float64
	Intervals       int
}

// ExtensionOutageStudy sweeps the HAP's long-run unavailability u — the
// paper's §II-D stability/maintenance concern made quantitative. Each point
// runs the air-ground network under a HAP-only fault schedule whose repairs
// take one topology step on average (MTBF = MTTR·(1−u)/u), seeded from
// p.Fault.Seed and spanning both the coverage window and the serve horizon.
// Coverage tracks availability and the day fragments into many short
// connected intervals, which is what a downstream application would
// actually experience.
func ExtensionOutageStudy(p qntn.Params, cfg qntn.ServeConfig, window time.Duration, unavailability []float64) ([]OutageRow, error) {
	horizon := max(window, cfg.Horizon, fault.DefaultHorizon)
	var rows []OutageRow
	for _, u := range unavailability {
		pp := p
		pp.Fault = fault.HAPUnavailability(u, p.TopologyStep(), horizon, p.Fault.Seed)
		sc, err := qntn.NewAirGround(pp)
		if err != nil {
			return nil, err
		}
		cov, err := sc.Coverage(window)
		if err != nil {
			return nil, err
		}
		serve, err := sc.RunServe(cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, OutageRow{
			Unavailability:  u,
			CoveragePercent: cov.Percent(),
			ServedPercent:   serve.ServedPercent,
			Intervals:       len(cov.Intervals),
		})
	}
	return rows, nil
}

// ArrivalRow reports one (architecture, arrival rate) cell of the
// queueing-dynamics study.
type ArrivalRow struct {
	Architecture     string
	RatePerHour      float64
	ServedPercent    float64
	ImmediatePercent float64
	MeanWait         time.Duration
	MaxQueueDepth    int
	MeanFidelity     float64
}

// ExtensionArrivalStudy drives both architectures with Poisson request
// arrivals through the discrete-event simulator, exposing the queueing
// dynamics the paper's infinite-queue assumption hides: on the space-ground
// side requests pile up between passes and drain in bursts.
func ExtensionArrivalStudy(p qntn.Params, nSats int, horizon time.Duration, rates []float64, seed int64) ([]ArrivalRow, error) {
	type arch struct {
		name  string
		build func(qntn.Params) (*qntn.Scenario, error)
	}
	archs := []arch{
		{qntn.SpaceGround.String(), func(pp qntn.Params) (*qntn.Scenario, error) { return qntn.NewSpaceGround(nSats, pp) }},
		{qntn.AirGround.String(), qntn.NewAirGround},
	}
	p = p.CoverFaults(horizon) // the admission samples its horizon itself
	var rows []ArrivalRow
	for _, a := range archs {
		sc, err := a.build(p)
		if err != nil {
			return nil, err
		}
		for _, rate := range rates {
			res, err := sc.RunArrivals(qntn.ArrivalConfig{RatePerHour: rate, Horizon: horizon, Seed: seed})
			if err != nil {
				return nil, err
			}
			immediate := 0.0
			if res.Arrivals > 0 {
				immediate = 100 * float64(res.ServedImmediately) / float64(res.Arrivals)
			}
			rows = append(rows, ArrivalRow{
				Architecture:     a.name,
				RatePerHour:      rate,
				ServedPercent:    res.ServedPercent(),
				ImmediatePercent: immediate,
				MeanWait:         res.MeanWait,
				MaxQueueDepth:    res.MaxQueueDepth,
				MeanFidelity:     res.MeanFidelity,
			})
		}
	}
	return rows, nil
}
