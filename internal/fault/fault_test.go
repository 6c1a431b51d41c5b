package fault

import (
	"math"
	"reflect"
	"testing"
	"time"

	"qntn/internal/geo"
	"qntn/internal/netsim"
)

// testNodes builds a small mixed fleet: two ground hosts in one LAN, one
// satellite-kind and one HAP-kind node (positions are irrelevant to the
// schedule, which only looks at IDs and kinds).
func testNodes(t *testing.T) []netsim.Node {
	t.Helper()
	g1 := netsim.NewGroundHost("G-1", "LAN", geo.LLA{LatDeg: 36, LonDeg: -85})
	g2 := netsim.NewGroundHost("G-2", "LAN", geo.LLA{LatDeg: 36.01, LonDeg: -85})
	hap := netsim.NewHAPNode("HAP-1", geo.LLA{LatDeg: 35.7, LonDeg: -85.1, AltM: 30e3})
	return []netsim.Node{g1, g2, hap}
}

func TestConfigEnabled(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want bool
	}{
		{"zero", Config{}, false},
		{"seed-only", Config{Seed: 7}, false},
		{"sat", Config{SatMTBF: time.Hour, SatMTTR: time.Minute}, true},
		{"hap", Config{HAPMTBF: time.Hour, HAPMTTR: time.Minute}, true},
		{"ground", Config{GroundMTBF: time.Hour, GroundMTTR: time.Minute}, true},
		{"weather", Config{WeatherP: 0.1}, true},
	}
	for _, tc := range cases {
		if got := tc.cfg.Enabled(); got != tc.want {
			t.Errorf("%s: Enabled() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{SatMTBF: time.Hour},                        // MTBF without MTTR
		{SatMTTR: time.Minute},                      // MTTR without MTBF
		{HAPMTBF: -time.Hour, HAPMTTR: time.Minute}, // negative
		{GroundMTBF: time.Hour},                     // pair incomplete
		{WeatherP: 1},                               // fraction must stay below 1
		{WeatherP: -0.1},                            //
		{WeatherP: 0.1, WeatherAttenuation: 1.5},    // attenuation above 1
		{WeatherP: 0.1, WeatherMeanDuration: -1},    // negative mean
		{Horizon: -time.Hour},                       // negative horizon
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid config %+v", i, cfg)
		}
	}
	good := []Config{
		{},
		{Seed: -3},
		{SatMTBF: 2 * time.Hour, SatMTTR: 10 * time.Minute, WeatherP: 0.3, WeatherAttenuation: 0.5},
		AtIntensity(0.4, 9),
	}
	for i, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("case %d: Validate rejected valid config: %v", i, err)
		}
	}
}

func TestAtIntensity(t *testing.T) {
	if cfg := AtIntensity(0, 5); cfg.Enabled() || cfg.Seed != 5 {
		t.Fatalf("AtIntensity(0) should disable faults and keep the seed, got %+v", cfg)
	}
	cfg := AtIntensity(0.25, 1)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// u = MTTR/(MTBF+MTTR) must recover the requested intensity.
	u := float64(cfg.SatMTTR) / float64(cfg.SatMTBF+cfg.SatMTTR)
	if math.Abs(u-0.25) > 1e-9 {
		t.Errorf("implied unavailability %g, want 0.25", u)
	}
	if cfg.SatMTBF != cfg.HAPMTBF || cfg.SatMTTR != cfg.HAPMTTR {
		t.Error("satellite and HAP environments should degrade together")
	}
	if cfg.WeatherP != 0.125 {
		t.Errorf("weather fraction %g, want u/2 = 0.125", cfg.WeatherP)
	}
	if ext := AtIntensity(2, 1); ext.Validate() != nil {
		t.Errorf("clamped extreme intensity must still validate: %+v", ext)
	}
}

func TestHAPUnavailability(t *testing.T) {
	if cfg := HAPUnavailability(0, time.Minute, time.Hour, 5); cfg.Enabled() || cfg.Seed != 5 {
		t.Fatalf("HAPUnavailability(0) should disable faults and keep the seed, got %+v", cfg)
	}
	cfg := HAPUnavailability(0.2, 30*time.Second, 12*time.Hour, 1)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	u := float64(cfg.HAPMTTR) / float64(cfg.HAPMTBF+cfg.HAPMTTR)
	if math.Abs(u-0.2) > 1e-9 {
		t.Errorf("implied unavailability %g, want 0.2", u)
	}
	if cfg.SatMTBF != 0 || cfg.GroundMTBF != 0 || cfg.WeatherP != 0 {
		t.Errorf("only HAPs may fail: %+v", cfg)
	}
	if cfg.Horizon != 12*time.Hour {
		t.Errorf("horizon %v, want 12h", cfg.Horizon)
	}
}

// TestScheduleDeterminism: the schedule is a pure function of (Config, node
// IDs) — rebuilding it, and rebuilding it from a reordered node list, gives
// identical spans.
func TestScheduleDeterminism(t *testing.T) {
	nodes := testNodes(t)
	cfg := Config{
		HAPMTBF: 90 * time.Minute, HAPMTTR: 15 * time.Minute,
		GroundMTBF: 4 * time.Hour, GroundMTTR: 20 * time.Minute,
		WeatherP: 0.2, Seed: 42,
	}
	s1, err := NewSchedule(cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSchedule(cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	reversed := []netsim.Node{nodes[2], nodes[1], nodes[0]}
	s3, err := NewSchedule(cfg, reversed)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"G-1", "G-2", "HAP-1"} {
		if !reflect.DeepEqual(s1.DownSpans(id), s2.DownSpans(id)) {
			t.Errorf("%s: rebuild changed the schedule", id)
		}
		if !reflect.DeepEqual(s1.DownSpans(id), s3.DownSpans(id)) {
			t.Errorf("%s: node order changed the schedule", id)
		}
	}
	if !reflect.DeepEqual(s1.WeatherSpans(), s3.WeatherSpans()) {
		t.Error("node order changed the weather sequence")
	}
	if len(s1.DownSpans("HAP-1")) == 0 {
		t.Error("90m MTBF over 24h should produce at least one HAP outage")
	}

	// A different seed must change at least one schedule.
	cfg2 := cfg
	cfg2.Seed = 43
	s4, err := NewSchedule(cfg2, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(s1.DownSpans("HAP-1"), s4.DownSpans("HAP-1")) &&
		reflect.DeepEqual(s1.WeatherSpans(), s4.WeatherSpans()) {
		t.Error("changing the seed changed nothing")
	}
}

// TestScheduleUnavailabilityFraction: over a long horizon the observed down
// fraction concentrates near MTTR/(MTBF+MTTR), and the weather fraction
// near WeatherP.
func TestScheduleUnavailabilityFraction(t *testing.T) {
	nodes := testNodes(t)
	cfg := Config{
		HAPMTBF: 2 * time.Hour, HAPMTTR: 30 * time.Minute, // u = 0.2
		WeatherP: 0.3,
		Horizon:  240 * time.Hour, // ~96 up/down cycles
		Seed:     1,
	}
	s, err := NewSchedule(cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(TotalDown(s.DownSpans("HAP-1"))) / float64(cfg.Horizon)
	if frac < 0.1 || frac > 0.35 {
		t.Errorf("observed HAP unavailability %.3f far from configured 0.2", frac)
	}
	wfrac := float64(TotalDown(s.WeatherSpans())) / float64(cfg.Horizon)
	if wfrac < 0.15 || wfrac > 0.5 {
		t.Errorf("observed weather fraction %.3f far from configured 0.3", wfrac)
	}
}

func TestScheduleQueries(t *testing.T) {
	nodes := testNodes(t)
	cfg := Config{GroundMTBF: time.Hour, GroundMTTR: 30 * time.Minute, Seed: 3}
	s, err := NewSchedule(cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	spans := s.DownSpans("G-1")
	if len(spans) == 0 {
		t.Fatal("expected at least one ground outage over 24h")
	}
	sp := spans[0]
	if !s.Down("G-1", sp.Start) {
		t.Error("interval start should be down (half-open [Start, End))")
	}
	if s.Down("G-1", sp.End) {
		t.Error("interval end should be up (half-open [Start, End))")
	}
	if sp.Start > 0 && s.Down("G-1", sp.Start-1) {
		t.Error("instant before the first outage should be up")
	}
	if s.Down("G-1", s.Horizon()+time.Hour) {
		t.Error("instants past the horizon must be operational")
	}
	if s.Down("NO-SUCH-NODE", sp.Start) {
		t.Error("unknown IDs must be operational")
	}
	// Relay kinds have no enabled pair here, so they never fail.
	if got := s.DownSpans("HAP-1"); got != nil {
		t.Errorf("HAP outages generated without an enabled HAP pair: %v", got)
	}
}
