package qntn

import (
	"fmt"
	"time"

	"qntn/internal/geo"
	"qntn/internal/netsim"
	"qntn/internal/orbit"
)

// propagationHook, when non-nil, observes every propagation pass over a
// satellite catalog (one call per Table II fleet build, NewEphemerisCache's
// included, or NewWalker, with the catalog size). Tests install it to assert
// that nested-prefix sweeps propagate the constellation exactly once
// instead of once per size.
var propagationHook func(nSats int)

// cachedSatellite is a Table II satellite whose ECEF positions at a fixed
// set of sample times were propagated up front. Lookups at a sample time
// return the precomputed position (bit-identical to propagating on demand,
// since the cache stores the propagator's own output); any other time falls
// back to direct Keplerian propagation. The struct is immutable after
// construction, so one instance is safely shared by every prefix scenario
// of a sweep, across worker goroutines.
type cachedSatellite struct {
	id    string
	elems orbit.Elements
	index map[time.Duration]int // sample time -> slot in pos
	pos   []geo.Vec3
}

// ID implements netsim.Node.
func (s *cachedSatellite) ID() string { return s.id }

// Kind implements netsim.Node.
func (s *cachedSatellite) Kind() netsim.NodeKind { return netsim.Satellite }

// Network implements netsim.Node.
func (s *cachedSatellite) Network() string { return "" }

// PositionAt implements netsim.Node.
func (s *cachedSatellite) PositionAt(t time.Duration) geo.Vec3 {
	if i, ok := s.index[t]; ok {
		return s.pos[i]
	}
	return s.elems.PositionECEF(t)
}

// Elements returns the satellite's orbital elements, letting the window
// engine bound its speed (same contract as netsim.SatelliteNode.Elements).
func (s *cachedSatellite) Elements() orbit.Elements { return s.elems }

// EphemerisCache holds the first nSats satellites of the paper's Table II
// catalog with their positions propagated once at a fixed set of sample
// times. Because the paper's constellations are nested prefixes of the
// catalog, every sweep size is a slice of the same cached fleet: an
// 18-point sweep propagates 108 orbits once instead of 1,026 times.
type EphemerisCache struct {
	params Params
	sats   []netsim.Node
}

// NewEphemerisCache validates the parameters once, propagates the first
// nSats catalog satellites at every sample time, and returns the shared
// fleet. The times slice is the set of topology instants the experiment
// will evaluate (duplicates are tolerated).
func NewEphemerisCache(nSats int, p Params, times []time.Duration) (*EphemerisCache, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	fleet, err := paperFleet(nSats, p)
	if err != nil {
		return nil, err
	}
	index := make(map[time.Duration]int, len(times))
	var uniq []time.Duration
	for _, t := range times {
		if _, dup := index[t]; dup {
			continue
		}
		index[t] = len(uniq)
		uniq = append(uniq, t)
	}
	cache := &EphemerisCache{params: p, sats: make([]netsim.Node, len(fleet))}
	for i, node := range fleet {
		// The fleet builder's nodes carry the catalog IDs and the J2 rule;
		// the cache keeps both and adds the propagated positions.
		e := node.(*netsim.SatelliteNode).Elements()
		sat := &cachedSatellite{
			id:    node.ID(),
			elems: e,
			index: index,
			pos:   make([]geo.Vec3, len(uniq)),
		}
		for k, t := range uniq {
			sat.pos[k] = e.PositionECEF(t)
		}
		cache.sats[i] = sat
	}
	return cache, nil
}

// MaxSatellites returns the cached catalog size.
func (c *EphemerisCache) MaxSatellites() int { return len(c.sats) }

// Scenario assembles the space-ground scenario over the first n cached
// satellites: n must be a paper constellation size (orbit.CheckPaperSize),
// as for NewSpaceGround, and at most the cached catalog's. Parameters were
// validated when the cache was built, and the satellite nodes are shared
// (immutable) rather than re-propagated, so this is cheap enough to call
// once per sweep point.
func (c *EphemerisCache) Scenario(n int) (*Scenario, error) {
	if err := orbit.CheckPaperSize(n); err != nil {
		return nil, err
	}
	if n > len(c.sats) {
		return nil, fmt.Errorf("qntn: cached scenario size %d over the cached catalog's %d", n, len(c.sats))
	}
	return assembleTrusted(SpaceGround, c.params, GroundNetworks(), c.sats[:n], assembly{})
}
