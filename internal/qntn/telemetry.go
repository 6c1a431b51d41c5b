package qntn

import (
	"bytes"
	"fmt"
	"time"

	"qntn/internal/netsim"
	"qntn/internal/runner"
	"qntn/internal/telemetry"
)

// fidelityBuckets are the served-fidelity histogram bounds: coarse below the
// paper's useful range, fine near the 0.9+ region its analysis cares about.
var fidelityBuckets = []float64{0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95, 0.99}

// scenarioTelemetry holds the scenario-level counter handles resolved once
// at instrumentation time, so hot loops touch pre-looked-up pointers only.
type scenarioTelemetry struct {
	collector       *telemetry.Collector
	relaxRounds     *telemetry.Counter
	requestsServed  *telemetry.Counter
	requestsDropped *telemetry.Counter
	coverageSteps   *telemetry.Counter
	coverageCovered *telemetry.Counter
	fidelity        *telemetry.Histogram
	// Entanglement-protocol layer counters (zero unless Params.Protocol is
	// enabled): swap draws taken / failed, distillation rounds drawn /
	// postselected.
	protoSwaps          *telemetry.Counter
	protoSwapFailures   *telemetry.Counter
	protoPurifyRounds   *telemetry.Counter
	protoPurifyAccepted *telemetry.Counter
}

// addProto accumulates one protocol verdict's draw counters.
func (t *scenarioTelemetry) addProto(po *protoOutcome) {
	t.protoSwaps.Add(uint64(po.swapAttempts))
	t.protoSwapFailures.Add(uint64(po.swapFailures))
	t.protoPurifyRounds.Add(uint64(po.purifyRounds))
	t.protoPurifyAccepted.Add(uint64(po.purifyAccepted))
}

// Instrument attaches a telemetry collector to the scenario: the network
// gains per-snapshot counters, and RunServe (RunServeDES included, which
// runs its loop) and Coverage additionally record per-step events (when the
// collector carries an event sink) and scenario-level counters. Passing nil detaches instrumentation. Scenarios
// assembled from Params with a non-nil Telemetry field are instrumented
// automatically; sweeps re-instrument with per-task shards to stay
// worker-count invariant.
func (sc *Scenario) Instrument(c *telemetry.Collector) {
	if c == nil || c.Registry == nil {
		sc.tel = nil
		sc.Net.SetInstruments(nil)
		return
	}
	reg := c.Registry
	sc.Net.SetInstruments(netsim.NewInstruments(reg))
	sc.tel = &scenarioTelemetry{
		collector:       c,
		relaxRounds:     reg.Counter("relax_rounds_total"),
		requestsServed:  reg.Counter("requests_served_total"),
		requestsDropped: reg.Counter("requests_dropped_total"),
		coverageSteps:   reg.Counter("coverage_steps_total"),
		coverageCovered: reg.Counter("coverage_covered_steps_total"),
		fidelity:        reg.Histogram("served_fidelity", fidelityBuckets),

		protoSwaps:          reg.Counter("protocol_swaps_total"),
		protoSwapFailures:   reg.Counter("protocol_swap_failures_total"),
		protoPurifyRounds:   reg.Counter("protocol_purify_rounds_total"),
		protoPurifyAccepted: reg.Counter("protocol_purify_accepted_total"),
	}
}

// Telemetry returns the collector the scenario is instrumented with, or nil.
func (sc *Scenario) Telemetry() *telemetry.Collector {
	if sc.tel == nil {
		return nil
	}
	return sc.tel.collector
}

// serveLabel names the event stream of one serve run. The seed
// disambiguates replicated runs of the same scenario (same architecture and
// relay count), keeping (label, step) keys collision-free within a sweep.
func (sc *Scenario) serveLabel(seed int64) string {
	return fmt.Sprintf("serve/%s/%d/seed=%d", sc.Arch, len(sc.RelayIDs), seed)
}

// coverageLabel names the event stream of one coverage run.
func (sc *Scenario) coverageLabel() string {
	return fmt.Sprintf("coverage/%s/%d", sc.Arch, len(sc.RelayIDs))
}

// recordStepEvent emits one per-step event when the scenario's collector
// has an event sink. The snapshot-derived fields come from st; callers fill
// the experiment-specific fields via fill.
func (sc *Scenario) recordStepEvent(label string, step int, at time.Duration, st *netsim.SnapshotStats, fill func(*telemetry.Event)) {
	tel := sc.tel
	if tel == nil {
		return
	}
	sink := tel.collector.Sink()
	if sink == nil {
		return
	}
	e := telemetry.Event{
		Label:          label,
		Step:           step,
		TSeconds:       at.Seconds(),
		PairsEvaluated: int64(st.Pairs),
		LinksAdmitted:  int64(st.Admitted),
		HorizonRejects: st.HorizonRejects,
		RangeRejects:   st.RangeRejects,
		IndexCulled:    st.IndexCulled,
		NodesDown:      int64(st.NodesDown),
		Weather:        st.Weather,
	}
	if fill != nil {
		fill(&e)
	}
	sink.Record(e)
}

// ParamsHash returns a stable hex hash of the canonical JSON encoding of p
// — the manifest's reproducibility key. Runtime-only fields (Telemetry) are
// excluded by construction because the codec never serializes them.
func ParamsHash(p Params) string {
	var buf bytes.Buffer
	if err := SaveParams(&buf, p); err != nil {
		return ""
	}
	return fmt.Sprintf("%016x", runner.FNV64aBytes(buf.Bytes()))
}
