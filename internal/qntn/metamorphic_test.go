package qntn

import (
	"math"
	"testing"
	"time"

	"qntn/internal/fault"
)

// TestStricterParamsOnlyRemoveEdges is a metamorphic check on the link
// gates: tightening one of them — a higher elevation mask, a higher
// transmissivity threshold, or night-only ground links — may only drop
// links from a snapshot, never add one or change a surviving link's
// transmissivity. Enabling one fault class alone (satellite, HAP or ground
// outages; weather that severs or halves ground links) may likewise only
// drop links or lower a surviving link's transmissivity, never raise it.
// It runs over several instants spread through the day on SpaceGround-108,
// a small +grid Walker constellation (gates) and hybrid-12 (faults), and
// requires every variant to drop at least one link somewhere — per
// scenario for the gates, across the fault scenarios for a fault class,
// since SpaceGround-108 has no HAP to fail — so the check is not vacuous.
// The event-vs-stepped oracle cannot see this property: both paths share
// the link physics.
func TestStricterParamsOnlyRemoveEdges(t *testing.T) {
	instants := []time.Duration{0, 150 * time.Minute, 7 * time.Hour, 13*time.Hour + 30*time.Minute, 19 * time.Hour, 23 * time.Hour}
	scenarios := []struct {
		name          string
		build         func(Params) (*Scenario, error)
		gates, faults bool
	}{
		{"space-ground-108", func(p Params) (*Scenario, error) { return NewSpaceGround(108, p) }, true, true},
		{"walker-96-islgrid", func(p Params) (*Scenario, error) { return NewWalker(walkerTestSpec(), p) }, true, false},
		{"hybrid-12", func(p Params) (*Scenario, error) { return NewHybrid(12, p) }, false, true},
	}
	weather := fault.Config{WeatherP: 0.5, WeatherMeanDuration: 2 * time.Hour, Seed: 1}
	halved := weather
	halved.WeatherAttenuation = 0.5
	variants := []struct {
		name    string
		tighten func(*Params)
		fault   bool
	}{
		{"elevation mask 20°→30°", func(p *Params) { p.MinElevationRad = math.Pi / 6 }, false},
		{"threshold 0.7→0.8", func(p *Params) { p.TransmissivityThreshold = 0.8 }, false},
		{"darkness required", func(p *Params) { p.RequireDarkness = true }, false},
		{"satellite outages", func(p *Params) { p.Fault = fault.Config{SatMTBF: 2 * time.Hour, SatMTTR: time.Hour, Seed: 1} }, true},
		{"HAP outages", func(p *Params) { p.Fault = fault.Config{HAPMTBF: time.Hour, HAPMTTR: time.Hour, Seed: 1} }, true},
		{"ground outages", func(p *Params) { p.Fault = fault.Config{GroundMTBF: 2 * time.Hour, GroundMTTR: time.Hour, Seed: 1} }, true},
		{"weather, attenuation 0", func(p *Params) { p.Fault = weather }, true},
		{"weather, attenuation 0.5", func(p *Params) { p.Fault = halved }, true},
	}
	faultDropped := make(map[string]int)
	for _, scn := range scenarios {
		base, err := scn.build(DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range variants {
			if v.fault && !scn.faults || !v.fault && !scn.gates {
				continue
			}
			p := DefaultParams()
			v.tighten(&p)
			strict, err := scn.build(p)
			if err != nil {
				t.Fatal(err)
			}
			dropped := 0
			for _, at := range instants {
				bg, err := base.Graph(at)
				if err != nil {
					t.Fatal(err)
				}
				sg, err := strict.Graph(at)
				if err != nil {
					t.Fatal(err)
				}
				want, got := edgeSet(bg), edgeSet(sg)
				for key, eta := range got {
					baseEta, ok := want[key]
					if !ok {
						t.Fatalf("%s, %s, t=%v: link %s-%s added", scn.name, v.name, at, key[0], key[1])
					}
					if eta > baseEta || !v.fault && eta != baseEta {
						t.Fatalf("%s, %s, t=%v: link %s-%s η %v, baseline %v", scn.name, v.name, at, key[0], key[1], eta, baseEta)
					}
				}
				dropped += len(want) - len(got)
			}
			if v.fault {
				faultDropped[v.name] += dropped
			} else if dropped == 0 {
				t.Errorf("%s, %s: no link dropped at any instant; the check is vacuous", scn.name, v.name)
			}
		}
	}
	for _, v := range variants {
		if v.fault && faultDropped[v.name] == 0 {
			t.Errorf("%s: no link dropped in any fault scenario; the check is vacuous", v.name)
		}
	}
}
