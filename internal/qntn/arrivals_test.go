package qntn

import (
	"math"
	"reflect"
	"testing"
	"time"

	"qntn/internal/telemetry"
)

func TestRunArrivalsAirGround(t *testing.T) {
	sc, err := NewAirGround(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ArrivalConfig{RatePerHour: 240, Horizon: 2 * time.Hour, Seed: 3}
	res, err := sc.RunArrivals(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Poisson count: mean 480, generous band.
	if res.Arrivals < 300 || res.Arrivals > 700 {
		t.Fatalf("arrivals %d outside Poisson band", res.Arrivals)
	}
	// Always-on HAP: everything served on arrival, no queueing.
	if res.Served != res.Arrivals || res.ServedImmediately != res.Arrivals {
		t.Fatalf("air-ground should serve all on arrival: %+v", res)
	}
	if res.MeanWait != 0 || res.MaxQueueDepth != 0 {
		t.Fatalf("air-ground should never queue: %+v", res)
	}
	if res.MeanFidelity < 0.97 || res.MeanFidelity > 0.99 {
		t.Fatalf("air-ground arrival fidelity %g", res.MeanFidelity)
	}
	// Events: arrivals + 241 topology updates.
	if res.EventsProcessed < res.Arrivals {
		t.Fatalf("events %d below arrivals", res.EventsProcessed)
	}
}

func TestRunArrivalsSpaceGroundQueues(t *testing.T) {
	sc, err := NewSpaceGround(108, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ArrivalConfig{RatePerHour: 120, Horizon: 3 * time.Hour, Seed: 5}
	res, err := sc.RunArrivals(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrivals == 0 {
		t.Fatal("no arrivals generated")
	}
	// Coverage gaps force queueing: some requests wait, queue depth grows.
	if res.ServedImmediately >= res.Served {
		t.Fatalf("expected some queued service: %+v", res)
	}
	if res.MaxQueueDepth == 0 {
		t.Fatal("queue never grew despite coverage gaps")
	}
	if res.MeanWait <= 0 || res.MeanWait > time.Hour {
		t.Fatalf("mean wait %v implausible", res.MeanWait)
	}
	if res.MaxWait < res.MeanWait {
		t.Fatal("max wait below mean")
	}
	// Nearly everything is eventually served at 108 satellites (gaps are
	// minutes, horizon is hours); only the tail is censored.
	if res.ServedPercent() < 80 {
		t.Fatalf("served %.2f%% over 3 h", res.ServedPercent())
	}
}

// TestRunArrivalsTelemetry: an instrumented RunArrivals must count what it
// served, with the protocol layer on, and leave the result untouched.
func TestRunArrivalsTelemetry(t *testing.T) {
	p := DefaultParams()
	p.Protocol = protoTestConfig()
	cfg := ArrivalConfig{RatePerHour: 120, Horizon: 3 * time.Hour, Seed: 5}
	plain, err := NewSpaceGround(24, p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.RunArrivals(cfg)
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.NewCollector()
	p.Telemetry = col
	sc, err := NewSpaceGround(24, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.RunArrivals(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("instrumented arrivals diverged:\n%+v\nvs\n%+v", res, want)
	}
	if res.Served == 0 || res.Served == res.Arrivals {
		t.Fatalf("want some served and some dropped requests: %+v", res)
	}
	fid := col.Registry.Histogram("served_fidelity", nil)
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"requests_served_total", counterValue(t, col, "requests_served_total"), uint64(res.Served)},
		{"requests_dropped_total", counterValue(t, col, "requests_dropped_total"), uint64(res.Arrivals - res.Served)},
		{"snapshot_steps_total", counterValue(t, col, "snapshot_steps_total"), uint64(res.EventsProcessed - res.Arrivals)},
		{"served_fidelity count", fid.Count(), uint64(res.Served)},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if mean := fid.Sum() / float64(fid.Count()); math.Abs(mean-res.MeanFidelity) > 1e-12 {
		t.Errorf("served_fidelity mean %g, result %g", mean, res.MeanFidelity)
	}
	swaps, fails := counterValue(t, col, "protocol_swaps_total"), counterValue(t, col, "protocol_swap_failures_total")
	rounds, accepted := counterValue(t, col, "protocol_purify_rounds_total"), counterValue(t, col, "protocol_purify_accepted_total")
	if swaps == 0 || fails == 0 || fails > swaps || accepted > rounds {
		t.Errorf("protocol counters: swaps %d, failures %d, purify rounds %d, accepted %d", swaps, fails, rounds, accepted)
	}
}

func TestRunArrivalsDeterministic(t *testing.T) {
	sc, err := NewSpaceGround(36, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ArrivalConfig{RatePerHour: 60, Horizon: time.Hour, Seed: 9}
	r1, err := sc.RunArrivals(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sc.RunArrivals(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Arrivals != r2.Arrivals || r1.Served != r2.Served ||
		r1.MeanWait != r2.MeanWait || r1.MeanFidelity != r2.MeanFidelity {
		t.Fatalf("arrival sim not deterministic: %+v vs %+v", r1, r2)
	}
	cfg.Seed = 10
	r3, err := sc.RunArrivals(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Arrivals == r1.Arrivals && r3.MeanWait == r1.MeanWait {
		t.Fatal("different seed produced identical run")
	}
}

func TestRunArrivalsRejectsBadConfig(t *testing.T) {
	sc, err := NewAirGround(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, rate := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := sc.RunArrivals(ArrivalConfig{RatePerHour: rate, Horizon: time.Hour}); err == nil {
			t.Fatalf("rate %g accepted", rate)
		}
	}
}

func TestArrivalResultServedPercent(t *testing.T) {
	r := ArrivalResult{Arrivals: 200, Served: 150}
	if r.ServedPercent() != 75 {
		t.Fatalf("served percent %g", r.ServedPercent())
	}
	if (&ArrivalResult{}).ServedPercent() != 0 {
		t.Fatal("empty result should be 0%")
	}
}
