package qntn

import (
	"math"
	"reflect"
	"testing"
	"time"

	"qntn/internal/fault"
	"qntn/internal/netsim"
)

// hapOutageParams returns the default parameters under a HAP-only fault
// schedule of long-run unavailability u with one-step repairs — the
// environment of the outage study (experiments.ExtensionOutageStudy).
func hapOutageParams(u float64, horizon time.Duration, seed int64) Params {
	p := DefaultParams()
	p.Fault = fault.HAPUnavailability(u, p.TopologyStep(), horizon, seed)
	return p
}

func TestOutageZeroProbabilityAlwaysAvailable(t *testing.T) {
	sc, err := NewAirGround(hapOutageParams(0, time.Hour, 1))
	if err != nil {
		t.Fatal(err)
	}
	cov, err := sc.Coverage(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if cov.Percent() != 100 {
		t.Fatalf("no-outage coverage %.2f%%", cov.Percent())
	}
}

func TestOutageFrequencyMatchesProbability(t *testing.T) {
	sc, err := NewAirGround(hapOutageParams(0.2, 12*time.Hour, 0))
	if err != nil {
		t.Fatal(err)
	}
	cov, err := sc.Coverage(12 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// Coverage should track availability: ≈80% within sampling noise.
	if got := cov.Percent(); math.Abs(got-80) > 4 {
		t.Fatalf("coverage %.2f%% with 20%% unavailability, want ≈80%%", got)
	}
	// Outages fragment the day into many intervals.
	if len(cov.Intervals) < 20 {
		t.Fatalf("only %d intervals — outages not fragmenting coverage", len(cov.Intervals))
	}
}

func TestOutageDeterministic(t *testing.T) {
	p := hapOutageParams(0.3, 2*time.Hour, 0)
	sc1, err := NewAirGround(p)
	if err != nil {
		t.Fatal(err)
	}
	sc2, err := NewAirGround(p)
	if err != nil {
		t.Fatal(err)
	}
	host := sc1.GroundIDs[NetworkTTU][0]
	for at := time.Duration(0); at < 2*time.Hour; at += 30 * time.Second {
		_, ok1 := sc1.EvaluateLink(host, HAPID, at)
		_, ok2 := sc2.EvaluateLink(host, HAPID, at)
		if ok1 != ok2 {
			t.Fatalf("outage pattern not deterministic at %v", at)
		}
	}
}

func TestOutageFaultSeedChangesPattern(t *testing.T) {
	scA, err := NewAirGround(hapOutageParams(0.3, 4*time.Hour, 0))
	if err != nil {
		t.Fatal(err)
	}
	scB, err := NewAirGround(hapOutageParams(0.3, 4*time.Hour, 12345))
	if err != nil {
		t.Fatal(err)
	}
	host := scA.GroundIDs[NetworkTTU][0]
	same := true
	for at := time.Duration(0); at < 4*time.Hour; at += 30 * time.Second {
		_, ok1 := scA.EvaluateLink(host, HAPID, at)
		_, ok2 := scB.EvaluateLink(host, HAPID, at)
		if ok1 != ok2 {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical outage patterns")
	}
}

// TestOutageDoesNotAffectSatellites: a HAP-only schedule leaves a
// constellation without HAPs exactly as it was.
func TestOutageDoesNotAffectSatellites(t *testing.T) {
	clean, err := NewSpaceGround(108, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := NewSpaceGround(108, hapOutageParams(0.4, 2*time.Hour, 3))
	if err != nil {
		t.Fatal(err)
	}
	want, err := clean.Coverage(2 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	got, err := faulted.Coverage(2 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if want.Percent() <= 0 {
		t.Fatal("baseline space-ground coverage is zero; the check is vacuous")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("HAP-only faults changed space-ground coverage: %.2f%% vs %.2f%%", got.Percent(), want.Percent())
	}
}

// TestOutageDropsHybridHAPSatelliteLinks pins what a downed HAP means on
// the hybrid architecture: every link touching it goes, its
// HAP↔satellite links included, not only the ground↔HAP ones. At the
// paper's 0.7 threshold no HAP↔satellite link ever forms, so the threshold
// drops to 0.1, where they form on about a twentieth of the day's steps.
func TestOutageDropsHybridHAPSatelliteLinks(t *testing.T) {
	const window = 24 * time.Hour
	p := hapOutageParams(0.3, window, 2)
	p.TransmissivityThreshold = 0.1
	faulted, err := NewHybrid(12, p)
	if err != nil {
		t.Fatal(err)
	}
	p.Fault = fault.Config{}
	clean, err := NewHybrid(12, p)
	if err != nil {
		t.Fatal(err)
	}
	sched := faulted.faults
	satLinksDropped := 0
	for at := time.Duration(0); at < window; at += p.TopologyStep() {
		if !sched.Down(HAPID, at) {
			continue
		}
		base, err := clean.Graph(at)
		if err != nil {
			t.Fatal(err)
		}
		for key := range edgeSet(base) {
			a, b := faulted.Net.Node(key[0]).Kind(), faulted.Net.Node(key[1]).Kind()
			if (a == netsim.HAP && b == netsim.Satellite) || (a == netsim.Satellite && b == netsim.HAP) {
				satLinksDropped++
			}
		}
		g, err := faulted.Graph(at)
		if err != nil {
			t.Fatal(err)
		}
		for key := range edgeSet(g) {
			if key[0] == HAPID || key[1] == HAPID {
				t.Fatalf("t=%v: downed HAP still links %s-%s", at, key[0], key[1])
			}
		}
	}
	if satLinksDropped == 0 {
		t.Fatal("no HAP↔satellite link fell during a HAP outage; the check is vacuous")
	}
}

// TestOutageProbabilityValidation: Params.Validate rejects HAP outage
// schedules the renewal process cannot run — a HAP that never comes back
// (unavailability 1) and negative durations.
func TestOutageProbabilityValidation(t *testing.T) {
	p := hapOutageParams(1, time.Hour, 0)
	if err := p.Validate(); err == nil {
		t.Fatal("unavailability 1 accepted")
	}
	p = DefaultParams()
	p.Fault.HAPMTBF = -time.Minute
	p.Fault.HAPMTTR = time.Minute
	if err := p.Validate(); err == nil {
		t.Fatal("negative HAP MTBF accepted")
	}
}
