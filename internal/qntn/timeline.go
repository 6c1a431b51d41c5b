package qntn

import (
	"fmt"
	"time"

	"qntn/internal/quantum"
	"qntn/internal/stats"
)

// SpeedOfLightMPerS is the vacuum speed of light used for heralding
// latency.
const SpeedOfLightMPerS = 299792458.0

// ServeDESResult extends ServeResult with the timing metrics of the
// event-driven experiment.
type ServeDESResult struct {
	ServeResult
	// MeanLatency / MaxLatency summarize heralding latency over served
	// requests.
	MeanLatency time.Duration
	MaxLatency  time.Duration
	// EventsProcessed is the number of topology-update events executed:
	// one per step.
	EventsProcessed int
}

// PathLengthM returns the summed straight-line hop length of a path at
// virtual time t.
func (sc *Scenario) PathLengthM(path []string, t time.Duration) (float64, error) {
	var total float64
	for i := 0; i+1 < len(path); i++ {
		a := sc.Net.Node(path[i])
		b := sc.Net.Node(path[i+1])
		if a == nil || b == nil {
			return 0, fmt.Errorf("qntn: path references unknown node %q or %q", path[i], path[i+1])
		}
		total += a.PositionAt(t).Distance(b.PositionAt(t))
	}
	return total, nil
}

// HeraldingLatency models the time until both endpoints hold a confirmed
// pair: photons propagate outward over the path (L/c) and the classical
// heralding message travels back (another L/c), plus a fixed processing
// delay per hop.
func (sc *Scenario) HeraldingLatency(pathLengthM float64, hops int) time.Duration {
	prop := 2 * pathLengthM / SpeedOfLightMPerS
	latency := time.Duration(prop * float64(time.Second))
	latency += time.Duration(hops) * sc.Params.ProcessingDelayPerHop
	return latency
}

// TimeAwarePathFidelity extends PathFidelity with memory dephasing during
// the heralding wait: the pair's qubits sit in end-node memories for the
// storage duration, decohering with coherence time t2 (t2 <= 0 means ideal
// memories). The source split is chosen exactly as in PathFidelity —
// dephasing applies identically to every split, so the argmax is
// unchanged.
func TimeAwarePathFidelity(etas []float64, model FidelityModel, storage, t2 time.Duration) (float64, error) {
	if len(etas) == 0 {
		return 1, nil
	}
	if t2 <= 0 || storage <= 0 {
		return PathFidelity(etas, model), nil
	}
	var left, right float64
	switch model {
	case SourceAtEndpoint:
		left, right = 1, product(etas)
	default: // SourceAtBestSplit
		best, bestSplit := -1.0, 0
		for split := 0; split <= len(etas); split++ {
			f := quantum.AnalyticBellFidelityBothArms(product(etas[:split]), product(etas[split:]))
			if f > best {
				best, bestSplit = f, split
			}
		}
		left, right = product(etas[:bestSplit]), product(etas[bestSplit:])
	}
	return quantum.StoredBellFidelity(left, right, storage, t2)
}

// RunServeDES executes the serve experiment with the timing dimension of
// the discrete-event view: requests are attempted at each sampled topology
// instant, and each served request is charged a heralding latency during
// which its memories dephase (when MemoryT2 is set). It runs RunServe's
// loop — either topology backend, per Params.EventDriven — with a timed
// evaluator: path length → HeraldingLatency → TimeAwarePathFidelity. With
// ideal memories the serving and fidelity results are identical to
// RunServe. The protocol layer models memory dephasing itself, so a
// scenario with Params.Protocol enabled is rejected rather than charged T2
// twice.
func (sc *Scenario) RunServeDES(cfg ServeConfig) (*ServeDESResult, error) {
	if sc.Params.Protocol.Enabled() {
		return nil, fmt.Errorf("qntn: RunServeDES dephases with Params.MemoryT2 and cannot stack the protocol layer's memory model; disable Params.Protocol")
	}
	des := &ServeDESResult{}
	var latencies []float64
	timed := func(path []string, at time.Duration, hopEtas []float64) (float64, float64, time.Duration, error) {
		length, err := sc.PathLengthM(path, at)
		if err != nil {
			return 0, 0, 0, err
		}
		latency := sc.HeraldingLatency(length, len(hopEtas))
		fid, err := TimeAwarePathFidelity(hopEtas, sc.Params.FidelityModel, latency, sc.Params.MemoryT2)
		if err != nil {
			return 0, 0, 0, err
		}
		latencies = append(latencies, latency.Seconds())
		if latency > des.MaxLatency {
			des.MaxLatency = latency
		}
		return fid, length, latency, nil
	}
	if err := sc.runServe(cfg, &des.ServeResult, timed); err != nil {
		return nil, err
	}
	if len(latencies) > 0 {
		des.MeanLatency = time.Duration(stats.Mean(latencies) * float64(time.Second))
	}
	des.EventsProcessed = des.Config.Steps
	return des, nil
}
