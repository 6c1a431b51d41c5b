package qntn_test

// The serve-loop reference suite: RunServe and RunServeDES both run
// RunServe's one per-step loop over the topology stepper, and must be
// reflect.DeepEqual to the retired bodies kept in serve_ref_test.go — every
// archetype, faults off and on, on both topology backends, with the
// protocol off and on for RunServe and off for RunServeDES. With the
// protocol on, RunServeDES must be RunServe plus each served request's
// heralding latency.

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"qntn/internal/netsim"
	"qntn/internal/qntn"
	"qntn/internal/qntn/oracletest"
	"qntn/internal/stats"
)

// servedCount returns the number of served requests of one serve result.
func servedCount(res *qntn.ServeResult) int {
	n := 0
	for _, o := range res.Metrics.Outcomes {
		if o.Served {
			n++
		}
	}
	return n
}

func TestRunServeMatchesReference(t *testing.T) {
	served := 0
	for _, arch := range oracletest.Archetypes() {
		for _, faults := range []bool{false, true} {
			for _, proto := range []bool{false, true} {
				arch, faults, proto := arch, faults, proto
				t.Run(fmt.Sprintf("%s/faults=%v/protocol=%v", arch.Name, faults, proto), func(t *testing.T) {
					p := arch.Params()
					if faults {
						p.Fault = oracletest.FaultConfig(11)
					}
					if proto {
						p.Protocol = protocolOracleConfig()
					}
					cfg := referenceServeConfig(arch, arch.Duration)
					stepped, event := oracletest.Pair(t, arch.Build, p)
					want, err := qntn.RunServeReference(stepped, cfg)
					if err != nil {
						t.Fatalf("reference: %v", err)
					}
					for _, sc := range []*qntn.Scenario{stepped, event} {
						got, err := sc.RunServe(cfg)
						if err != nil {
							t.Fatalf("eventDriven=%v: %v", sc.Params.EventDriven, err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("eventDriven=%v: RunServe diverged from the reference\n got: %+v\nwant: %+v",
								sc.Params.EventDriven, got, want)
						}
					}
					served += servedCount(want)
				})
			}
		}
	}
	if served == 0 {
		t.Fatal("degenerate matrix: no archetype served a single request")
	}
}

func TestRunServeDESMatchesReference(t *testing.T) {
	served := 0
	for _, arch := range oracletest.Archetypes() {
		for _, faults := range []bool{false, true} {
			arch, faults := arch, faults
			t.Run(fmt.Sprintf("%s/faults=%v", arch.Name, faults), func(t *testing.T) {
				p := arch.Params()
				if faults {
					p.Fault = oracletest.FaultConfig(11)
				}
				cfg := referenceServeConfig(arch, arch.Duration)
				stepped, event := oracletest.Pair(t, arch.Build, p)
				want, err := qntn.RunServeDESReference(stepped, cfg)
				if err != nil {
					t.Fatalf("reference: %v", err)
				}
				for _, sc := range []*qntn.Scenario{stepped, event} {
					got, err := sc.RunServeDES(cfg)
					if err != nil {
						t.Fatalf("eventDriven=%v: %v", sc.Params.EventDriven, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("eventDriven=%v: RunServeDES diverged from the reference\n got: %+v\nwant: %+v",
							sc.Params.EventDriven, got, want)
					}
				}
				served += servedCount(&want.ServeResult)
			})
		}
	}
	if served == 0 {
		t.Fatal("degenerate matrix: no archetype served a single request")
	}
}

// TestRunServeDESComposesProtocol: with the protocol layer on, RunServeDES
// is RunServe — same served set, paths and protocol fidelities — plus the
// heralding latency of each served request's primary path, 2L/c at its
// instant, summarized by MeanLatency and MaxLatency. Every archetype, faults
// off and on, on both topology backends.
func TestRunServeDESComposesProtocol(t *testing.T) {
	served := 0
	for _, arch := range oracletest.Archetypes() {
		for _, faults := range []bool{false, true} {
			arch, faults := arch, faults
			t.Run(fmt.Sprintf("%s/faults=%v", arch.Name, faults), func(t *testing.T) {
				p := arch.Params()
				if faults {
					p.Fault = oracletest.FaultConfig(11)
				}
				p.Protocol = protocolOracleConfig()
				cfg := referenceServeConfig(arch, arch.Duration)
				stepped, event := oracletest.Pair(t, arch.Build, p)
				for _, sc := range []*qntn.Scenario{stepped, event} {
					want, err := sc.RunServe(cfg)
					if err != nil {
						t.Fatalf("eventDriven=%v RunServe: %v", sc.Params.EventDriven, err)
					}
					des, err := sc.RunServeDES(cfg)
					if err != nil {
						t.Fatalf("eventDriven=%v RunServeDES: %v", sc.Params.EventDriven, err)
					}
					got := des.ServeResult
					got.Metrics.Outcomes = append([]netsim.Outcome(nil), got.Metrics.Outcomes...)
					var latencies []float64
					var maxLatency time.Duration
					for i := range got.Metrics.Outcomes {
						o := &got.Metrics.Outcomes[i]
						if o.Served {
							length, err := sc.PathLengthM(o.Path, o.At)
							if err != nil {
								t.Fatal(err)
							}
							latency := qntn.HeraldingLatency(length)
							if o.PathLengthM != length || o.Latency != latency {
								t.Fatalf("eventDriven=%v outcome %d: length %g latency %v, want %g and %v",
									sc.Params.EventDriven, i, o.PathLengthM, o.Latency, length, latency)
							}
							latencies = append(latencies, latency.Seconds())
							maxLatency = max(maxLatency, latency)
						}
						o.PathLengthM, o.Latency = 0, 0
					}
					if !reflect.DeepEqual(&got, want) {
						t.Fatalf("eventDriven=%v: RunServeDES diverged from RunServe\n got: %+v\nwant: %+v",
							sc.Params.EventDriven, got, *want)
					}
					var meanLatency time.Duration
					if len(latencies) > 0 {
						meanLatency = time.Duration(stats.Mean(latencies) * float64(time.Second))
					}
					if des.MeanLatency != meanLatency || des.MaxLatency != maxLatency {
						t.Fatalf("eventDriven=%v: latency mean %v max %v, want %v and %v",
							sc.Params.EventDriven, des.MeanLatency, des.MaxLatency, meanLatency, maxLatency)
					}
					served += servedCount(want)
				}
			})
		}
	}
	if served == 0 {
		t.Fatal("degenerate matrix: no archetype served a single request")
	}
}

// TestZeroStepIntervalAfterConstruction: a StepInterval zeroed after
// construction (Validate only guards the constructors) must fall back to
// Params.TopologyStep in every loop on both topology backends — every call
// returns, and the backends agree.
func TestZeroStepIntervalAfterConstruction(t *testing.T) {
	build := func(p qntn.Params) (*qntn.Scenario, error) { return qntn.NewSpaceGround(24, p) }
	p := qntn.DefaultParams()
	p.Fault = oracletest.FaultConfig(3)
	stepped, event := oracletest.Pair(t, build, p)
	stepped.Params.StepInterval = 0
	event.Params.StepInterval = 0
	duration := 2 * time.Hour
	run := func(sc *qntn.Scenario) []any {
		cov, err := sc.Coverage(duration)
		if err != nil {
			t.Fatalf("eventDriven=%v coverage: %v", sc.Params.EventDriven, err)
		}
		if want := int(duration / qntn.DefaultParams().StepInterval); cov.Steps != want {
			t.Fatalf("eventDriven=%v: %d coverage steps, want %d on the fallback cadence", sc.Params.EventDriven, cov.Steps, want)
		}
		detail, err := sc.DetailedCoverage(duration)
		if err != nil {
			t.Fatalf("eventDriven=%v detailed coverage: %v", sc.Params.EventDriven, err)
		}
		// A duration shorter than one step samples nothing on either backend.
		short, err := sc.DetailedCoverage(10 * time.Second)
		if err != nil {
			t.Fatalf("eventDriven=%v short detailed coverage: %v", sc.Params.EventDriven, err)
		}
		if short.All.Steps != 0 {
			t.Fatalf("eventDriven=%v: %d steps in a sub-step duration", sc.Params.EventDriven, short.All.Steps)
		}
		out := []any{cov, detail, short}
		// The second config's Horizon/Steps gap underflows to zero, so its
		// samples also take the fallback cadence.
		for _, cfg := range []qntn.ServeConfig{
			{RequestsPerStep: 10, Steps: 20, Horizon: duration, Seed: 2},
			{RequestsPerStep: 10, Steps: 20, Horizon: 10 * time.Nanosecond, Seed: 2},
		} {
			res, err := sc.RunServe(cfg)
			if err != nil {
				t.Fatalf("eventDriven=%v serve: %v", sc.Params.EventDriven, err)
			}
			out = append(out, res)
		}
		return out
	}
	want := run(stepped)
	got := run(event)
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("result %d: event-driven diverged from stepped at zero StepInterval\n got: %+v\nwant: %+v", i, got[i], want[i])
		}
	}
}
