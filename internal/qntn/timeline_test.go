package qntn

import (
	"math"
	"testing"
	"time"

	"qntn/internal/quantum/protocol"
)

// idealProtocol is the latency study's protocol setting at memory T2 t2:
// deterministic swaps and no purification, so every routed request is
// served and only the memory model moves fidelity.
func idealProtocol(t2 time.Duration) protocol.Config {
	return protocol.Config{MemoryT2: t2, SwapSuccess: 1, PurifyPaths: 1}
}

func TestRunServeDESMatchesRunServeWithIdealMemory(t *testing.T) {
	p := DefaultParams()
	p.Protocol = idealProtocol(0)
	sc, err := NewAirGround(p)
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
	ideal.Protocol = idealProtocol(0)
	lossy := DefaultParams()
	lossy.Protocol = idealProtocol(10 * time.Millisecond) // comparable to ms-scale latency
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
	// 150 km path → 2·150e3/c ≈ 1.0007 ms.
	got := HeraldingLatency(150e3)
	seconds := 2 * 150e3 / SpeedOfLightMPerS
	want := time.Duration(seconds * float64(time.Second))
	if got != want {
		t.Fatalf("latency %v, want %v", got, want)
	}
}
