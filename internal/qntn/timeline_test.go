package qntn

import (
	"math"
	"testing"
	"time"

	"qntn/internal/quantum/protocol"
)

func TestRunServeDESMatchesRunServeWithIdealMemory(t *testing.T) {
	sc, err := NewAirGround(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickServeCfg()
	plain, err := sc.RunServe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	des, err := sc.RunServeDES(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if des.ServedPercent != plain.ServedPercent {
		t.Fatalf("served %g vs %g", des.ServedPercent, plain.ServedPercent)
	}
	if math.Abs(des.MeanFidelity-plain.MeanFidelity) > 1e-12 {
		t.Fatalf("fidelity %g vs %g with ideal memories", des.MeanFidelity, plain.MeanFidelity)
	}
	if des.EventsProcessed != cfg.Steps {
		t.Fatalf("events processed %d, want %d", des.EventsProcessed, cfg.Steps)
	}
}

func TestRunServeDESLatencyPlausible(t *testing.T) {
	sc, err := NewAirGround(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.RunServeDES(quickServeCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Air-ground paths are ~150-170 km of optics; heralding is two
	// passes plus nothing else → roughly a millisecond.
	if res.MeanLatency < 500*time.Microsecond || res.MeanLatency > 5*time.Millisecond {
		t.Fatalf("mean HAP latency %v implausible", res.MeanLatency)
	}
	if res.MaxLatency < res.MeanLatency {
		t.Fatal("max latency below mean")
	}
	for _, o := range res.Metrics.Outcomes {
		if !o.Served {
			continue
		}
		if o.PathLengthM < 100e3 || o.PathLengthM > 400e3 {
			t.Fatalf("path length %g m implausible for air-ground", o.PathLengthM)
		}
		if o.Latency <= 0 {
			t.Fatal("served outcome without latency")
		}
	}
}

func TestRunServeDESSpaceLatencyLargerThanAir(t *testing.T) {
	p := DefaultParams()
	air, err := NewAirGround(p)
	if err != nil {
		t.Fatal(err)
	}
	space, err := NewSpaceGround(108, p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickServeCfg()
	airRes, err := air.RunServeDES(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spaceRes, err := space.RunServeDES(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Satellites at 500+ km are necessarily farther than a 30 km HAP:
	// the paper's latency argument for the air-ground architecture.
	if spaceRes.MeanLatency <= airRes.MeanLatency {
		t.Fatalf("space latency %v not above air latency %v", spaceRes.MeanLatency, airRes.MeanLatency)
	}
}

func TestMemoryDecoherenceReducesFidelity(t *testing.T) {
	ideal := DefaultParams()
	lossy := DefaultParams()
	lossy.MemoryT2 = 10 * time.Millisecond // comparable to ms-scale latency
	cfg := quickServeCfg()

	scIdeal, err := NewAirGround(ideal)
	if err != nil {
		t.Fatal(err)
	}
	scLossy, err := NewAirGround(lossy)
	if err != nil {
		t.Fatal(err)
	}
	ri, err := scIdeal.RunServeDES(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := scLossy.RunServeDES(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rl.MeanFidelity >= ri.MeanFidelity {
		t.Fatalf("decoherence did not reduce fidelity: %g vs %g", rl.MeanFidelity, ri.MeanFidelity)
	}
	if rl.ServedPercent != ri.ServedPercent {
		t.Fatal("decoherence should not change reachability")
	}
}

func TestProcessingDelayAddsLatency(t *testing.T) {
	base := DefaultParams()
	delayed := DefaultParams()
	delayed.ProcessingDelayPerHop = 5 * time.Millisecond
	cfg := quickServeCfg()

	scBase, err := NewAirGround(base)
	if err != nil {
		t.Fatal(err)
	}
	scDelayed, err := NewAirGround(delayed)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := scBase.RunServeDES(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := scDelayed.RunServeDES(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two hops → +10 ms.
	gap := rd.MeanLatency - rb.MeanLatency
	if gap < 9*time.Millisecond || gap > 11*time.Millisecond {
		t.Fatalf("processing delay contributed %v, want ≈10ms", gap)
	}
}

func TestTimeAwarePathFidelity(t *testing.T) {
	etas := []float64{0.95, 0.9}
	// No storage or ideal memory → identical to PathFidelity.
	for _, m := range []FidelityModel{SourceAtBestSplit, SourceAtEndpoint} {
		f, err := TimeAwarePathFidelity(etas, m, 0, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(f-PathFidelity(etas, m)) > 1e-12 {
			t.Fatalf("%v: zero storage changed fidelity", m)
		}
		f, err = TimeAwarePathFidelity(etas, m, time.Second, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(f-PathFidelity(etas, m)) > 1e-12 {
			t.Fatalf("%v: ideal memory changed fidelity", m)
		}
	}
	// Monotone in storage time.
	prev := 2.0
	for _, ms := range []int{0, 1, 5, 20, 100} {
		f, err := TimeAwarePathFidelity(etas, SourceAtBestSplit, time.Duration(ms)*time.Millisecond, 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if f >= prev {
			t.Fatalf("fidelity not decreasing at storage %dms", ms)
		}
		prev = f
	}
	// Long storage converges to the dephased floor, still ≥ 0.5 is not
	// guaranteed but must stay in (0,1).
	f, err := TimeAwarePathFidelity(etas, SourceAtBestSplit, time.Hour, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if f <= 0 || f >= 1 {
		t.Fatalf("fully dephased fidelity %g out of range", f)
	}
	// Empty path unaffected.
	if f, _ := TimeAwarePathFidelity(nil, SourceAtBestSplit, time.Hour, time.Millisecond); f != 1 {
		t.Fatal("empty path should stay perfect")
	}
}

func TestPathLengthM(t *testing.T) {
	sc, err := NewAirGround(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ttu := sc.GroundIDs[NetworkTTU][0]
	ornl := sc.GroundIDs[NetworkORNL][0]
	l, err := sc.PathLengthM([]string{ttu, HAPID, ornl}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// TTU→HAP ≈ 75 km, HAP→ORNL ≈ 80 km.
	if l < 130e3 || l > 200e3 {
		t.Fatalf("path length %g m", l)
	}
	if _, err := sc.PathLengthM([]string{ttu, "nope"}, 0); err == nil {
		t.Fatal("unknown node accepted")
	}
}

func TestHeraldingLatency(t *testing.T) {
	sc, err := NewAirGround(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// 150 km path → 2·150e3/c ≈ 1.0007 ms.
	got := sc.HeraldingLatency(150e3, 2)
	seconds := 2 * 150e3 / SpeedOfLightMPerS
	want := time.Duration(seconds * float64(time.Second))
	if got != want {
		t.Fatalf("latency %v, want %v", got, want)
	}
}

// TestRunServeDESRejectsProtocol: RunServeDES dephases memories with
// Params.MemoryT2 itself, so a protocol-enabled scenario — whose own T2
// model would stack on top — is rejected instead of silently ignored.
func TestRunServeDESRejectsProtocol(t *testing.T) {
	p := DefaultParams()
	p.Protocol = protocol.Config{MemoryT2: 20 * time.Millisecond, SwapSuccess: 0.85, PurifyPaths: 3, Seed: 5}
	sc, err := NewSpaceGround(24, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.RunServeDES(quickServeCfg()); err == nil {
		t.Fatal("RunServeDES accepted a protocol-enabled scenario")
	}
	if _, err := sc.RunServe(quickServeCfg()); err != nil {
		t.Fatalf("RunServe on the same scenario: %v", err)
	}
}
