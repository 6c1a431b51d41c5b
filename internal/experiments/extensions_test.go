package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"qntn/internal/qntn"
)

func TestExtensionLatencyStudy(t *testing.T) {
	cfg := qntn.ServeConfig{RequestsPerStep: 8, Steps: 4, Horizon: 24 * time.Hour, Seed: 5}
	rows, err := ExtensionLatencyStudy(qntn.DefaultParams(), 36, cfg, []time.Duration{0, 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	byKey := map[string]LatencyRow{}
	for _, r := range rows {
		byKey[r.Architecture+"/"+r.MemoryT2.String()] = r
	}
	spaceIdeal := byKey["space-ground/0s"]
	spaceLossy := byKey["space-ground/10ms"]
	airIdeal := byKey["air-ground/0s"]
	airLossy := byKey["air-ground/10ms"]

	// Memory quality cannot change reachability, only fidelity.
	if spaceIdeal.ServedPercent != spaceLossy.ServedPercent {
		t.Fatal("memory T2 changed serving")
	}
	if spaceLossy.MeanFidelity >= spaceIdeal.MeanFidelity && spaceIdeal.ServedPercent > 0 {
		t.Fatal("dephasing did not reduce space fidelity")
	}
	if airLossy.MeanFidelity >= airIdeal.MeanFidelity {
		t.Fatal("dephasing did not reduce air fidelity")
	}
	// The paper's latency argument: HAPs at 30 km beat satellites at
	// 500 km.
	if airIdeal.MeanLatency >= spaceIdeal.MeanLatency && spaceIdeal.ServedPercent > 0 {
		t.Fatalf("air latency %v not below space %v", airIdeal.MeanLatency, spaceIdeal.MeanLatency)
	}
	// Latency itself is independent of memory quality.
	if airIdeal.MeanLatency != airLossy.MeanLatency {
		t.Fatal("memory T2 changed latency")
	}
}

func TestExtensionPurificationStudy(t *testing.T) {
	rows, err := ExtensionPurificationStudy([]float64{0.72, 0.92}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // (1 baseline + 2 rounds) × 2 etas
		t.Fatalf("%d rows", len(rows))
	}
	for _, eta := range []float64{0.72, 0.92} {
		var perRound []PurificationRow
		for _, r := range rows {
			if r.LinkEta == eta {
				perRound = append(perRound, r)
			}
		}
		if len(perRound) != 3 || perRound[0].Round != 0 {
			t.Fatalf("eta=%g rounds %+v", eta, perRound)
		}
		if perRound[1].Fidelity <= perRound[0].Fidelity {
			t.Errorf("eta=%g: first purification round did not improve", eta)
		}
		// Cost grows monotonically and the baseline costs exactly 1.
		prev := 0.0
		for _, r := range perRound {
			if r.ExpectedPairsConsumed <= prev {
				t.Errorf("eta=%g: pair cost not increasing: %+v", eta, perRound)
			}
			prev = r.ExpectedPairsConsumed
			if r.Fidelity <= 0 || r.Fidelity > 1 {
				t.Errorf("eta=%g round %d: fidelity %g", eta, r.Round, r.Fidelity)
			}
		}
		if perRound[0].ExpectedPairsConsumed != 1 {
			t.Errorf("baseline cost %g", perRound[0].ExpectedPairsConsumed)
		}
	}
	if _, err := ExtensionPurificationStudy([]float64{0.9}, 0); err == nil {
		t.Fatal("zero rounds accepted")
	}
}

func TestWriteCSV(t *testing.T) {
	var b strings.Builder
	err := WriteCSV(&b, []string{"a", "b"}, [][]string{{"1", "2"}, {"x", "y"}})
	if err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,2\nx,y\n"
	if b.String() != want {
		t.Fatalf("csv output %q", b.String())
	}
	if err := WriteCSV(&b, []string{"a"}, [][]string{{"1", "2"}}); err == nil {
		t.Fatal("ragged row accepted")
	}
}

func TestCSVEmitters(t *testing.T) {
	fig5, err := Fig5(0.25)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := Fig5CSV(&b, fig5); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(b.String(), "\n"); lines != len(fig5)+1 {
		t.Fatalf("fig5 csv lines %d", lines)
	}

	points, err := qntn.CoverageSweep(qntn.DefaultParams(), []int{6}, time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if err := Fig6CSV(&b, points); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "satellites,coverage_percent") {
		t.Fatalf("fig6 csv header missing: %q", b.String())
	}

	serve, err := qntn.ServeSweep(qntn.DefaultParams(), []int{6},
		qntn.ServeConfig{RequestsPerStep: 5, Steps: 2, Horizon: 24 * time.Hour, Seed: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if err := Fig78CSV(&b, serve); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "served_percent") {
		t.Fatal("fig78 csv header missing")
	}

	b.Reset()
	if err := Table3CSV(&b, []Table3Row{{Architecture: "x", CoveragePercent: 1, ServedPercent: 2, MeanFidelity: 0.5}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "x,1.0000,2.0000,0.500000") {
		t.Fatalf("table3 csv row: %q", b.String())
	}

	b.Reset()
	if err := LatencyCSV(&b, []LatencyRow{{Architecture: "a", MemoryT2: time.Millisecond, MeanLatency: time.Millisecond}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "memory_t2_s") {
		t.Fatal("latency csv header missing")
	}

	b.Reset()
	if err := PurificationCSV(&b, []PurificationRow{{LinkEta: 0.9, Round: 1, Fidelity: 0.99, SuccessProbability: 0.9, ExpectedPairsConsumed: 2.1}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "0.9000,1,0.990000,0.900000,2.1000") {
		t.Fatalf("purification csv row: %q", b.String())
	}
}

func TestPurificationRecoversSpaceFidelityDeficit(t *testing.T) {
	// The study's headline: one round of purification on the measured
	// space-ground path (eta ≈ 0.72) lifts fidelity above the paper's
	// 0.96 target.
	rows, err := ExtensionPurificationStudy([]float64{0.72}, 1)
	if err != nil {
		t.Fatal(err)
	}
	after := rows[1].Fidelity
	if after < 0.96 {
		t.Fatalf("one purification round reaches only %g", after)
	}
	if math.Abs(rows[0].Fidelity-0.9243) > 0.001 {
		t.Fatalf("baseline fidelity %g, want ≈0.9243", rows[0].Fidelity)
	}
}

func TestExtensionNightStudy(t *testing.T) {
	cfg := qntn.ServeConfig{RequestsPerStep: 10, Steps: 8, Horizon: 24 * time.Hour, Seed: 6}
	rows, err := ExtensionNightStudy(qntn.DefaultParams(), 36, cfg, 3*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	byKey := map[string]NightRow{}
	for _, r := range rows {
		key := r.Architecture
		if r.NightOnly {
			key += "/night"
		}
		byKey[key] = r
	}
	// Night gating can only reduce coverage and serving.
	for _, arch := range []string{"space-ground", "air-ground"} {
		ideal, night := byKey[arch], byKey[arch+"/night"]
		if night.CoveragePercent > ideal.CoveragePercent+1e-9 {
			t.Fatalf("%s: night coverage above ideal", arch)
		}
		if night.ServedPercent > ideal.ServedPercent+1e-9 {
			t.Fatalf("%s: night serving above ideal", arch)
		}
	}
	// The HAP keeps a clear edge even at night.
	if byKey["air-ground/night"].ServedPercent <= byKey["space-ground/night"].ServedPercent {
		t.Fatal("air-ground should still beat space-ground under night gating")
	}
}

func TestExtensionOutageStudy(t *testing.T) {
	cfg := qntn.ServeConfig{RequestsPerStep: 10, Steps: 20, Horizon: 24 * time.Hour, Seed: 8}
	rows, err := ExtensionOutageStudy(qntn.DefaultParams(), cfg, 6*time.Hour, []float64{0, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	clean, flaky := rows[0], rows[1]
	if clean.CoveragePercent != 100 || clean.Intervals != 1 {
		t.Fatalf("outage-free baseline wrong: %+v", clean)
	}
	if flaky.CoveragePercent >= clean.CoveragePercent {
		t.Fatal("outages did not reduce coverage")
	}
	if math.Abs(flaky.CoveragePercent-80) > 6 {
		t.Fatalf("20%% outage coverage %.2f%%, want ≈80%%", flaky.CoveragePercent)
	}
	if flaky.Intervals < 10 {
		t.Fatalf("outages should fragment coverage, got %d intervals", flaky.Intervals)
	}
}

func TestExtensionArrivalStudy(t *testing.T) {
	rows, err := ExtensionArrivalStudy(qntn.DefaultParams(), 108, 2*time.Hour, []float64{120}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	space, air := rows[0], rows[1]
	// Queueing converts the space-ground architecture's coverage gaps
	// into waiting time instead of loss.
	if space.ServedPercent < 90 {
		t.Fatalf("queued space serving %.2f%%", space.ServedPercent)
	}
	if space.ImmediatePercent >= 95 {
		t.Fatalf("space immediate %.2f%% — gaps vanished?", space.ImmediatePercent)
	}
	if space.MeanWait <= 0 || space.MaxQueueDepth == 0 {
		t.Fatalf("space queueing dynamics missing: %+v", space)
	}
	if air.ImmediatePercent != 100 || air.MeanWait != 0 {
		t.Fatalf("air should never queue: %+v", air)
	}
	// Queue-drained requests are served at pass edges (low elevation), so
	// arrival fidelity sits below the instantaneous-serving average.
	if space.MeanFidelity >= 0.93 || space.MeanFidelity < 0.88 {
		t.Fatalf("space arrival fidelity %.4f outside expected band", space.MeanFidelity)
	}
}
