package qntn

import (
	"math"
	"testing"
	"time"
)

// TestStricterParamsOnlyRemoveEdges is a metamorphic check on the link
// gates: tightening one of them — a higher elevation mask, a higher
// transmissivity threshold, or night-only ground links — may only drop
// links from a snapshot, never add one or change a surviving link's
// transmissivity. It runs over several SpaceGround-108 instants spread
// through the day and a small +grid Walker constellation, and requires
// every tightening to drop at least one link somewhere, so the check is
// not vacuous. The event-vs-stepped oracle cannot see this property: both
// paths share the link physics.
func TestStricterParamsOnlyRemoveEdges(t *testing.T) {
	instants := []time.Duration{0, 150 * time.Minute, 7 * time.Hour, 13*time.Hour + 30*time.Minute, 19 * time.Hour, 23 * time.Hour}
	scenarios := []struct {
		name  string
		build func(Params) (*Scenario, error)
	}{
		{"space-ground-108", func(p Params) (*Scenario, error) { return NewSpaceGround(108, p) }},
		{"walker-96-islgrid", func(p Params) (*Scenario, error) { return NewWalker(walkerTestSpec(), p) }},
	}
	variants := []struct {
		name    string
		tighten func(*Params)
	}{
		{"elevation mask 20°→30°", func(p *Params) { p.MinElevationRad = math.Pi / 6 }},
		{"threshold 0.7→0.8", func(p *Params) { p.TransmissivityThreshold = 0.8 }},
		{"darkness required", func(p *Params) { p.RequireDarkness = true }},
	}
	for _, scn := range scenarios {
		base, err := scn.build(DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range variants {
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
					if eta != baseEta {
						t.Fatalf("%s, %s, t=%v: link %s-%s η %v, baseline %v", scn.name, v.name, at, key[0], key[1], eta, baseEta)
					}
				}
				dropped += len(want) - len(got)
			}
			if dropped == 0 {
				t.Errorf("%s, %s: no link dropped at any instant; the check is vacuous", scn.name, v.name)
			}
		}
	}
}
