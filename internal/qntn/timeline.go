package qntn

import (
	"fmt"
	"time"

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
// pair over a path of the given length: photons propagate outward over the
// path (L/c) and the classical heralding message travels back (another
// L/c).
func HeraldingLatency(pathLengthM float64) time.Duration {
	return time.Duration(2 * pathLengthM / SpeedOfLightMPerS * float64(time.Second))
}

// RunServeDES executes the serve experiment with the timing dimension of
// the discrete-event view: it is RunServe — either topology backend, per
// Params.EventDriven, and either protocol setting — with each served
// request charged the heralding latency of its primary path at its
// instant. Memory dephasing during that wait is the protocol layer's
// (Params.Protocol.MemoryT2), so served fraction and fidelity are exactly
// RunServe's.
func (sc *Scenario) RunServeDES(cfg ServeConfig) (*ServeDESResult, error) {
	res, err := sc.RunServe(cfg)
	if err != nil {
		return nil, err
	}
	des := &ServeDESResult{ServeResult: *res}
	var latencies []float64
	outs := des.Metrics.Outcomes
	for i := range outs {
		o := &outs[i]
		if !o.Served {
			continue
		}
		length, err := sc.PathLengthM(o.Path, o.At)
		if err != nil {
			return nil, err
		}
		o.PathLengthM = length
		o.Latency = HeraldingLatency(length)
		latencies = append(latencies, o.Latency.Seconds())
		des.MaxLatency = max(des.MaxLatency, o.Latency)
	}
	if len(latencies) > 0 {
		des.MeanLatency = time.Duration(stats.Mean(latencies) * float64(time.Second))
	}
	return des, nil
}
