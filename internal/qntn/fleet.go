package qntn

import (
	"fmt"
	"math"

	"qntn/internal/channel"
	"qntn/internal/geo"
	"qntn/internal/netsim"
)

// ExtendedNetworks returns the paper's three LANs plus three synthetic
// metropolitan LANs (Nashville, Memphis, Knoxville) used by the statewide
// extension study — the paper's stated goal is that the QNTN analysis
// "pave the way for other networks".
func ExtendedNetworks() []LocalNetwork {
	extra := []LocalNetwork{
		{
			Name: "NASH", // Nashville
			Nodes: []geo.LLA{
				{LatDeg: 36.1627, LonDeg: -86.7816},
				{LatDeg: 36.1650, LonDeg: -86.7840},
				{LatDeg: 36.1605, LonDeg: -86.7790},
				{LatDeg: 36.1680, LonDeg: -86.7770},
			},
		},
		{
			Name: "MEM", // Memphis
			Nodes: []geo.LLA{
				{LatDeg: 35.1495, LonDeg: -90.0490},
				{LatDeg: 35.1520, LonDeg: -90.0520},
				{LatDeg: 35.1470, LonDeg: -90.0455},
				{LatDeg: 35.1545, LonDeg: -90.0470},
			},
		},
		{
			Name: "KNOX", // Knoxville
			Nodes: []geo.LLA{
				{LatDeg: 35.9606, LonDeg: -83.9207},
				{LatDeg: 35.9630, LonDeg: -83.9235},
				{LatDeg: 35.9585, LonDeg: -83.9180},
				{LatDeg: 35.9655, LonDeg: -83.9190},
			},
		},
	}
	return append(GroundNetworks(), extra...)
}

// NewMultiHAP assembles an air-ground scenario over the given LANs with one
// HAP per position (all at Params.HAPAltM unless the position carries its
// own altitude).
func NewMultiHAP(p Params, lans []LocalNetwork, positions []geo.LLA) (*Scenario, error) {
	if len(positions) == 0 {
		return nil, fmt.Errorf("qntn: multi-HAP scenario needs at least one platform")
	}
	relays := make([]netsim.Node, 0, len(positions))
	for i, pos := range positions {
		if pos.AltM == 0 {
			pos.AltM = p.HAPAltM
		}
		relays = append(relays, netsim.NewHAPNode(fmt.Sprintf("HAP-%d", i+1), pos))
	}
	return NewCustomScenario(AirGround, p, lans, relays)
}

// NewExtendedSpaceGround assembles the space-ground architecture over the
// extended statewide LAN set, with the same Table II fleet as
// NewSpaceGround.
func NewExtendedSpaceGround(nSats int, p Params) (*Scenario, error) {
	sats, err := paperFleet(nSats, p)
	if err != nil {
		return nil, err
	}
	return NewCustomScenario(SpaceGround, p, ExtendedNetworks(), sats)
}

// hapServes reports whether a HAP at pos can hold a usable link to every
// node of the LAN (elevation mask + transmissivity threshold, downlink
// budget).
func hapServes(p Params, cfg channel.FSOConfig, pos geo.LLA, lan LocalNetwork) bool {
	for _, node := range lan.Nodes {
		look := geo.Look(node, pos.ECEF())
		if look.ElevationRad < p.MinElevationRad {
			return false
		}
		eta := cfg.Transmissivity(channel.FSOGeometry{
			RangeM:       look.SlantRangeM,
			ElevationRad: look.ElevationRad,
			LoAltM:       node.AltM,
			HiAltM:       pos.AltM,
		})
		if eta < p.TransmissivityThreshold {
			return false
		}
	}
	return true
}

// PlacementResult describes an optimized HAP fleet.
type PlacementResult struct {
	Positions []geo.LLA
	// ConnectedPairs counts LAN pairs joined by the fleet (directly or
	// through LANs shared between platforms).
	ConnectedPairs int
	// TotalPairs is the number of LAN pairs.
	TotalPairs int
}

// PlaceHAPs greedily positions up to maxHAPs platforms (altitude
// Params.HAPAltM) over the bounding box of the LANs, maximizing the number
// of LAN pairs connected through the fleet. Candidates are evaluated on a
// grid with the given spacing in degrees. The greedy loop stops early once
// every pair is connected.
func PlaceHAPs(p Params, lans []LocalNetwork, maxHAPs int, gridStepDeg float64) (*PlacementResult, error) {
	if maxHAPs <= 0 {
		return nil, fmt.Errorf("qntn: need a positive HAP budget")
	}
	if gridStepDeg <= 0 {
		return nil, fmt.Errorf("qntn: need a positive grid step")
	}
	if len(lans) < 2 {
		return nil, fmt.Errorf("qntn: need at least two LANs")
	}
	cfg := p.HAPDownlinkFSO()

	// Candidate grid over the (slightly padded) LAN bounding box.
	minLat, maxLat := math.Inf(1), math.Inf(-1)
	minLon, maxLon := math.Inf(1), math.Inf(-1)
	for _, lan := range lans {
		for _, n := range lan.Nodes {
			minLat, maxLat = math.Min(minLat, n.LatDeg), math.Max(maxLat, n.LatDeg)
			minLon, maxLon = math.Min(minLon, n.LonDeg), math.Max(maxLon, n.LonDeg)
		}
	}
	const padDeg = 0.3
	minLat, maxLat = minLat-padDeg, maxLat+padDeg
	minLon, maxLon = minLon-padDeg, maxLon+padDeg

	// For every candidate, the set of LANs it serves (bitmask).
	type candidate struct {
		pos    geo.LLA
		serves uint64
	}
	var candidates []candidate
	for lat := minLat; lat <= maxLat; lat += gridStepDeg {
		for lon := minLon; lon <= maxLon; lon += gridStepDeg {
			pos := geo.LLA{LatDeg: lat, LonDeg: lon, AltM: p.HAPAltM}
			var mask uint64
			for li, lan := range lans {
				if hapServes(p, cfg, pos, lan) {
					mask |= 1 << uint(li)
				}
			}
			if bitsSet(mask) >= 2 { // useless unless it joins something
				candidates = append(candidates, candidate{pos: pos, serves: mask})
			}
		}
	}

	totalPairs := len(lans) * (len(lans) - 1) / 2
	res := &PlacementResult{TotalPairs: totalPairs}
	chosen := make([]uint64, 0, maxHAPs)
	for len(res.Positions) < maxHAPs {
		best := -1
		bestGain := 0
		for ci, c := range candidates {
			gain := connectedPairs(append(chosen, c.serves), len(lans)) - connectedPairs(chosen, len(lans))
			if gain > bestGain {
				bestGain = gain
				best = ci
			}
		}
		if best < 0 {
			break // no candidate improves connectivity
		}
		res.Positions = append(res.Positions, candidates[best].pos)
		chosen = append(chosen, candidates[best].serves)
		if connectedPairs(chosen, len(lans)) == totalPairs {
			break
		}
	}
	res.ConnectedPairs = connectedPairs(chosen, len(lans))
	if len(res.Positions) == 0 {
		return nil, fmt.Errorf("qntn: no HAP position serves two LANs (grid step %g°)", gridStepDeg)
	}
	return res, nil
}

// connectedPairs counts LAN pairs joined through the fleet: two LANs are
// connected when some chain of platforms (linked by shared LANs) touches
// both.
func connectedPairs(serves []uint64, nLAN int) int {
	var uf unionFind
	uf.ensure(nLAN)
	for _, mask := range serves {
		first := -1
		for li := 0; li < nLAN; li++ {
			if mask&(1<<uint(li)) == 0 {
				continue
			}
			if first < 0 {
				first = li
			} else {
				uf.union(first, li)
			}
		}
	}
	count := 0
	for i := 0; i < nLAN; i++ {
		for j := i + 1; j < nLAN; j++ {
			if uf.find(i) == uf.find(j) {
				count++
			}
		}
	}
	return count
}

func bitsSet(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
