package qntn

import (
	"fmt"
	"time"

	"qntn/internal/netsim"
	"qntn/internal/routing"
)

// topoStepper is the topology backend behind every stepped run: the
// per-step loop of Coverage and DetailedCoverage, and the admission core of
// the request drivers, RunServe (RunServeDES included), RunArrivals and
// RunTraffic (arrivals.go). A driver visits a sampleGrid in order; after step(k) the
// stepper's graph holds the usable-link snapshot at grid.at(k). Two
// backends produce that snapshot, DeepEqual-identical by the differential
// oracle suite:
//
//   - stepped (the semantic oracle): the scenario's GraphInto rebuild of
//     the whole graph at every instant, a union-find bridged
//     check, and a diff of consecutive snapshots' edge keys when link
//     transitions are counted;
//   - event-driven (Params.EventDriven): the eventEngine's incremental
//     replay of precomputed visibility windows (eventloop.go).
//
// Coverage calls bridgedStep instead of step: it needs only the bridged
// answer, so the event backend leaves the graph alone and evaluates the
// open pairs on demand, stopping once the LANs meet; the stepped backend
// builds the snapshot and runs the union-find over it as usual.
//
// Telemetry-instrumented scenarios, the serve daemon's included, always
// step: the per-snapshot counters and step events come from GraphInto,
// which only the stepped backend calls.
type topoStepper struct {
	sc   *Scenario
	grid sampleGrid
	g    *routing.Graph
	eng  *eventEngine // nil on the stepped backend

	// uf is the bridged check's scratch over g (DetailedCoverage on either
	// backend, bridgedStep on the stepped one).
	uf unionFind

	// Stepped backend state. stats receives each step's snapshot stats when
	// the scenario is instrumented (nil otherwise). When trackLinks is set,
	// prevKeys holds the previous step's edge keys (routing's
	// AppendEdgeKeys, ascending) and keys is the reused buffer for the
	// current step's.
	stats          *netsim.SnapshotStats
	trackLinks     bool
	prevKeys, keys []uint64
	transitions    int
}

// newTopoStepper picks the backend for a run over grid. trackLinks asks the
// stepped backend to count link transitions (the event engine always does).
// The caller must close the stepper.
func (sc *Scenario) newTopoStepper(grid sampleGrid, trackLinks bool) (*topoStepper, error) {
	if err := sc.checkFaultHorizon(grid.at(grid.steps - 1)); err != nil {
		return nil, err
	}
	ts := &topoStepper{sc: sc, grid: grid, trackLinks: trackLinks}
	if sc.Params.EventDriven && sc.tel == nil {
		eng, err := sc.newEventEngine(grid)
		if err != nil {
			return nil, err
		}
		ts.eng, ts.g = eng, eng.g
		return ts, nil
	}
	ts.g = routing.NewGraph()
	if sc.tel != nil {
		ts.stats = new(netsim.SnapshotStats)
	}
	return ts, nil
}

// checkFaultHorizon refuses a run whose last sampled instant is at or past
// the end of the fault schedule: the schedule reports every node up and
// the sky clear from its horizon on, so those instants would count as
// fault-free.
func (sc *Scenario) checkFaultHorizon(last time.Duration) error {
	if sc.faults == nil || last < sc.faults.Horizon() {
		return nil
	}
	return fmt.Errorf("qntn: the run samples up to %v but the fault schedule ends at %v; set the params key fault.horizon_s past the run", last, sc.faults.Horizon())
}

// step advances the topology to grid step k; steps must be visited in
// order from 0.
//
//qntn:hotpath once per topology step
func (ts *topoStepper) step(k int) error {
	if ts.eng != nil {
		return ts.eng.runStep(k)
	}
	at := ts.grid.at(k)
	if err := ts.sc.GraphInto(ts.g, at, ts.stats); err != nil {
		return err
	}
	if ts.trackLinks {
		// The node set, and so every node's dense index, is fixed over a
		// run, so a link is the same key at every step. The first topology
		// is an observation, not a transition.
		ts.keys = ts.g.AppendEdgeKeys(ts.keys[:0])
		if k > 0 {
			ts.transitions += keysChanged(ts.prevKeys, ts.keys)
		}
		ts.prevKeys, ts.keys = ts.keys, ts.prevKeys
	}
	return nil
}

// keysChanged counts the keys in exactly one of two ascending key lists:
// the links that appeared plus those that dropped.
//
//qntn:hotpath once per topology step whose transitions are counted
func keysChanged(prev, cur []uint64) int {
	changed, i, j := 0, 0, 0
	for i < len(prev) && j < len(cur) {
		switch {
		case prev[i] == cur[j]:
			i++
			j++
		case prev[i] < cur[j]:
			changed++
			i++
		default:
			changed++
			j++
		}
	}
	return changed + len(prev) - i + len(cur) - j
}

// bridgedStep advances to grid step k, like step, and reports whether all
// LANs share one component there. On the event backend the graph is not
// maintained, so a run must use either step or bridgedStep throughout.
func (ts *topoStepper) bridgedStep(k int) (bool, error) {
	if ts.eng != nil {
		ts.eng.advance(k)
		return ts.eng.bridged(k), nil
	}
	if err := ts.step(k); err != nil {
		return false, err
	}
	return ts.sc.bridgedInto(&ts.uf, ts.g, ts.g.NumNodes()), nil
}

// linkTransitions returns the link appear/disappear count over the steps
// run so far, excluding the initial topology: exactly the changes a
// netsim.LinkTracker observing every step would report, on either backend
// (the event engine counts them from its own deltas). Transmissivity-only
// changes count for neither.
func (ts *topoStepper) linkTransitions() int {
	if ts.eng != nil {
		return ts.eng.transitions
	}
	return ts.transitions
}

// close returns the event engine, if any, to the scenario's pool.
func (ts *topoStepper) close() {
	if ts.eng != nil {
		ts.eng.Close()
	}
}
