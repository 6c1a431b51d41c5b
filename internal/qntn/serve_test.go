package qntn

import (
	"math"
	"testing"
	"time"

	"qntn/internal/netsim"
)

func quickServeCfg() ServeConfig {
	return ServeConfig{RequestsPerStep: 20, Steps: 10, Horizon: 24 * time.Hour, Seed: 7}
}

func TestAirGroundServesEverything(t *testing.T) {
	sc, err := NewAirGround(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.RunServe(quickServeCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedPercent != 100 {
		t.Fatalf("air-ground served %.2f%%, want 100%%", res.ServedPercent)
	}
	// Paper: average fidelity 0.98.
	if res.MeanFidelity < 0.96 || res.MeanFidelity > 0.995 {
		t.Fatalf("air-ground fidelity %.4f outside the paper's regime (≈0.98)", res.MeanFidelity)
	}
	if len(res.Metrics.Outcomes) != 200 {
		t.Fatalf("outcome count %d", len(res.Metrics.Outcomes))
	}
	for _, o := range res.Metrics.Outcomes {
		if !o.Served {
			t.Fatalf("unserved request %+v in air-ground", o.Request)
		}
		if len(o.Path) < 3 {
			t.Fatalf("inter-LAN path too short: %v", o.Path)
		}
		if o.EndToEndEta <= 0 || o.EndToEndEta > 1 {
			t.Fatalf("path eta %g", o.EndToEndEta)
		}
	}
}

func TestAirGroundPathsUseHAP(t *testing.T) {
	sc, err := NewAirGround(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.RunServe(quickServeCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range res.Metrics.Outcomes {
		usesHAP := false
		for _, hop := range o.Path {
			if hop == HAPID {
				usesHAP = true
			}
		}
		if !usesHAP {
			t.Fatalf("inter-LAN path avoids the HAP: %v", o.Path)
		}
	}
}

func TestSpaceGroundServePartial(t *testing.T) {
	sc, err := NewSpaceGround(108, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.RunServe(quickServeCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedPercent <= 0 || res.ServedPercent >= 100 {
		t.Fatalf("space-ground served %.2f%% should be partial", res.ServedPercent)
	}
	if res.MeanFidelity < 0.85 || res.MeanFidelity >= 1 {
		t.Fatalf("space-ground fidelity %.4f implausible", res.MeanFidelity)
	}
	// Served paths traverse at least one satellite.
	for _, o := range res.Metrics.Outcomes {
		if !o.Served {
			continue
		}
		viaSat := false
		for _, hop := range o.Path {
			if len(hop) >= 3 && hop[:3] == "SAT" {
				viaSat = true
			}
		}
		if !viaSat {
			t.Fatalf("served inter-LAN path avoids satellites: %v", o.Path)
		}
	}
}

func TestServeDeterministic(t *testing.T) {
	sc, err := NewSpaceGround(54, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	r1, err := sc.RunServe(quickServeCfg())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sc.RunServe(quickServeCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r1.ServedPercent != r2.ServedPercent || math.Abs(r1.MeanFidelity-r2.MeanFidelity) > 1e-15 {
		t.Fatal("serve experiment is not deterministic for a fixed seed")
	}
	cfg := quickServeCfg()
	cfg.Seed = 99
	r3, err := sc.RunServe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Different seed should (almost surely) give a different workload; the
	// outcomes object must differ in its request sequence.
	same := true
	for i := range r1.Metrics.Outcomes {
		if r1.Metrics.Outcomes[i].Request != r3.Metrics.Outcomes[i].Request {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestServeRejectsBadConfig(t *testing.T) {
	sc, err := NewAirGround(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.RunServe(ServeConfig{RequestsPerStep: 0, Steps: 10}); err == nil {
		t.Fatal("zero requests accepted")
	}
	if _, err := sc.RunServe(ServeConfig{RequestsPerStep: 10, Steps: 0}); err == nil {
		t.Fatal("zero steps accepted")
	}
	// The outcome count Steps × RequestsPerStep must fit an int; before the
	// check such a config was accepted and never finished.
	if _, err := sc.RunServe(ServeConfig{RequestsPerStep: 2, Steps: math.MaxInt/2 + 1}); err == nil {
		t.Fatal("overflowing request count accepted")
	}
	if _, err := sc.RunServe(ServeConfig{RequestsPerStep: math.MaxInt, Steps: math.MaxInt}); err == nil {
		t.Fatal("overflowing request count accepted")
	}
}

// TestRunServePresizesOutcomes: every request records exactly one outcome,
// so RunServe sizes the outcome slice once, protocol off and on, and never
// grows it.
func TestRunServePresizesOutcomes(t *testing.T) {
	for _, proto := range []bool{false, true} {
		p := DefaultParams()
		if proto {
			p.Protocol = protoTestConfig()
		}
		sc, err := NewSpaceGround(24, p)
		if err != nil {
			t.Fatal(err)
		}
		cfg := quickServeCfg()
		res, err := sc.RunServe(cfg)
		if err != nil {
			t.Fatal(err)
		}
		outs := res.Metrics.Outcomes
		if want := cfg.Steps * cfg.RequestsPerStep; len(outs) != want || cap(outs) != want {
			t.Fatalf("protocol=%v: %d outcomes in capacity %d, want %d in %d", proto, len(outs), cap(outs), want, want)
		}
	}
}

// TestRunServeEvaluatesSampleTimes is the regression test for the
// duplicated stepGap fallback: RunServe must evaluate exactly the instants
// cfg.SampleTimes reports — the list sweeps use to pre-propagate
// ephemerides — including the degenerate tiny-horizon case where the
// integer division Horizon/Steps collapses to zero and the StepInterval
// fallback kicks in.
func TestRunServeEvaluatesSampleTimes(t *testing.T) {
	sc, err := NewAirGround(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  ServeConfig
	}{
		{"paper-shaped", ServeConfig{RequestsPerStep: 3, Steps: 7, Horizon: 5 * time.Hour, Seed: 1}},
		{"default horizon", ServeConfig{RequestsPerStep: 2, Steps: 4, Seed: 1}},
		{"tiny horizon", ServeConfig{RequestsPerStep: 2, Steps: 5, Horizon: 3 * time.Nanosecond, Seed: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.cfg.SampleTimes(sc.Params)
			if len(want) != tc.cfg.Steps {
				t.Fatalf("SampleTimes produced %d instants, want %d", len(want), tc.cfg.Steps)
			}
			res, err := sc.RunServe(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(res.Metrics.Outcomes); got != tc.cfg.Steps*tc.cfg.RequestsPerStep {
				t.Fatalf("%d outcomes, want %d", got, tc.cfg.Steps*tc.cfg.RequestsPerStep)
			}
			for k, o := range res.Metrics.Outcomes {
				if at := want[k/tc.cfg.RequestsPerStep]; o.At != at {
					t.Fatalf("outcome %d evaluated at %v, SampleTimes says %v", k, o.At, at)
				}
			}
		})
	}
	// The tiny-horizon fallback must actually spread the steps out.
	tiny := ServeConfig{RequestsPerStep: 1, Steps: 5, Horizon: 3 * time.Nanosecond}.SampleTimes(sc.Params)
	if tiny[1] != sc.Params.StepInterval {
		t.Errorf("degenerate stepGap fallback gave %v, want StepInterval %v", tiny[1], sc.Params.StepInterval)
	}
}

func TestDefaultServeConfigMatchesPaper(t *testing.T) {
	cfg := DefaultServeConfig()
	if cfg.RequestsPerStep != 100 || cfg.Steps != 100 {
		t.Fatalf("default serve config %+v, paper uses 100 requests × 100 steps", cfg)
	}
}

func TestServeFidelitySummaryConsistent(t *testing.T) {
	sc, err := NewAirGround(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.RunServe(quickServeCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.FidelitySummary.N != 200 {
		t.Fatalf("summary N %d", res.FidelitySummary.N)
	}
	if math.Abs(res.FidelitySummary.Mean-res.MeanFidelity) > 1e-12 {
		t.Fatal("summary mean disagrees with MeanFidelity")
	}
	if res.FidelitySummary.Min > res.FidelitySummary.Max {
		t.Fatal("summary min > max")
	}
}

func TestWorkload(t *testing.T) {
	sc, err := NewAirGround(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	wl := mustWorkload(t, sc, 3)
	batch := wl.Batch(500)
	if len(batch) != 500 {
		t.Fatalf("batch size %d", len(batch))
	}
	seenPairs := map[[2]string]bool{}
	for _, r := range batch {
		if err := wl.Validate(r); err != nil {
			t.Fatalf("generated request invalid: %v", err)
		}
		seenPairs[[2]string{sc.NetworkOf(r.Src), sc.NetworkOf(r.Dst)}] = true
	}
	// All six ordered LAN pairs should occur in 500 draws.
	if len(seenPairs) != 6 {
		t.Fatalf("only %d LAN pair kinds in 500 requests", len(seenPairs))
	}
	// Validate rejects bad requests.
	if err := wl.Validate(netsim.Request{Src: "TTU-01", Dst: "TTU-02"}); err == nil {
		t.Fatal("intra-LAN request accepted")
	}
	if err := wl.Validate(netsim.Request{Src: "nope", Dst: "TTU-01"}); err == nil {
		t.Fatal("unknown host accepted")
	}
	// Request IDs increase.
	if batch[0].ID >= batch[1].ID {
		t.Fatal("request IDs should increase")
	}
}
