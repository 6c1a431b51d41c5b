package qntn

import (
	"math"
	"reflect"
	"testing"
	"time"

	"qntn/internal/fault"
	"qntn/internal/orbit"
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

// TestPrefixConstellationsNest is the prefix metamorphic property the
// daemon's shared ephemeris cache and the coverage sweep rely on. The
// paper's constellations are prefixes of one catalog, and a link's verdict
// depends only on its two endpoints, so adding satellites may only add
// links and covered steps. Scenarios of 6, 24, 54 and 108 satellites are
// built from one EphemerisCache. At the instants of
// TestStricterParamsOnlyRemoveEdges each smaller graph must equal the
// larger graph restricted to the smaller one's nodes — the pairwise
// dependence itself, bit-identical transmissivities included — so the edge
// sets nest. Then the covered steps of a one-day Coverage must nest as
// satellites are added, on both engines, and grow somewhere so the check is
// not vacuous. The event-vs-stepped oracle cannot see this property: both
// paths share the link physics.
func TestPrefixConstellationsNest(t *testing.T) {
	sizes := []int{6, 24, 54, 108}
	instants := []time.Duration{0, 150 * time.Minute, 7 * time.Hour, 13*time.Hour + 30*time.Minute, 19 * time.Hour, 23 * time.Hour}
	grid := coverageGrid(DefaultParams().TopologyStep(), orbit.Day)
	times := append([]time.Duration(nil), instants...)
	for k := 0; k < grid.steps; k++ {
		times = append(times, grid.at(k))
	}
	for _, eventDriven := range []bool{false, true} {
		p := DefaultParams()
		p.EventDriven = eventDriven
		cache, err := NewEphemerisCache(sizes[len(sizes)-1], p, times)
		if err != nil {
			t.Fatal(err)
		}
		scs := make([]*Scenario, len(sizes))
		for i, n := range sizes {
			if scs[i], err = cache.Scenario(n); err != nil {
				t.Fatal(err)
			}
		}
		if !eventDriven {
			for _, at := range instants {
				for i := 1; i < len(sizes); i++ {
					small, err := scs[i-1].Graph(at)
					if err != nil {
						t.Fatal(err)
					}
					large, err := scs[i].Graph(at)
					if err != nil {
						t.Fatal(err)
					}
					want := edgeSet(small)
					present := make(map[string]bool)
					for _, id := range small.Nodes() {
						present[id] = true
					}
					got := make(map[[2]string]float64)
					for key, eta := range edgeSet(large) {
						if present[key[0]] && present[key[1]] {
							got[key] = eta
						}
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("t=%v: %d-satellite graph restricted to the %d-satellite nodes has %d links, the %d-satellite graph %d",
							at, sizes[i], sizes[i-1], len(got), sizes[i-1], len(want))
					}
				}
			}
		}
		var prev map[time.Duration]bool
		for i, sc := range scs {
			res, err := sc.Coverage(orbit.Day)
			if err != nil {
				t.Fatal(err)
			}
			covered := make(map[time.Duration]bool)
			for _, iv := range res.Intervals {
				for at := iv.Start; at < iv.End; at += grid.gap {
					covered[at] = true
				}
			}
			if len(covered) != res.CoveredSteps {
				t.Fatalf("%d satellites: %d covered instants from the intervals, %d covered steps", sizes[i], len(covered), res.CoveredSteps)
			}
			for at := range prev {
				if !covered[at] {
					t.Fatalf("event-driven=%v: t=%v covered with %d satellites but not with %d", eventDriven, at, sizes[i-1], sizes[i])
				}
			}
			if prev != nil && len(covered) == len(prev) {
				t.Errorf("event-driven=%v: %d and %d satellites cover the same %d steps; the check is vacuous here",
					eventDriven, sizes[i-1], sizes[i], len(covered))
			}
			prev = covered
		}
	}
}

// TestPrefixConstellationsServeNest carries the prefix property through
// RunServe. With the protocol off a request is served when a path exists,
// and each larger constellation only adds links to the smaller one's graph
// (TestPrefixConstellationsNest), so on both engines every request that
// SpaceGround-6/24/54/108, built from one EphemerisCache, serves must be
// served by every larger size under the same ServeConfig, and the served
// count must grow somewhere.
func TestPrefixConstellationsServeNest(t *testing.T) {
	sizes := []int{6, 24, 54, 108}
	cfg := DefaultServeConfig()
	for _, eventDriven := range []bool{false, true} {
		p := DefaultParams()
		p.EventDriven = eventDriven
		cache, err := NewEphemerisCache(sizes[len(sizes)-1], p, cfg.SampleTimes(p))
		if err != nil {
			t.Fatal(err)
		}
		var prev *ServeResult
		grew := false
		for i, n := range sizes {
			sc, err := cache.Scenario(n)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sc.RunServe(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if prev != nil {
				small, large := prev.Metrics.Outcomes, res.Metrics.Outcomes
				if len(small) != len(large) {
					t.Fatalf("event-driven=%v: %d outcomes with %d satellites, %d with %d", eventDriven, len(small), sizes[i-1], len(large), n)
				}
				for k, o := range small {
					if large[k].Request != o.Request || large[k].At != o.At {
						t.Fatalf("event-driven=%v: outcome %d is request %+v at %v with %d satellites, %+v at %v with %d",
							eventDriven, k, o.Request, o.At, sizes[i-1], large[k].Request, large[k].At, n)
					}
					if o.Served && !large[k].Served {
						t.Fatalf("event-driven=%v: request %+v at %v served with %d satellites but not with %d",
							eventDriven, o.Request, o.At, sizes[i-1], n)
					}
				}
				if res.ServedPercent > prev.ServedPercent {
					grew = true
				}
			}
			prev = res
		}
		if !grew {
			t.Errorf("event-driven=%v: served count never grows from 6 to 108 satellites; the check is vacuous", eventDriven)
		}
	}
}
