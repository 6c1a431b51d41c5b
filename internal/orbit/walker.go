package orbit

import (
	"fmt"
	"strings"
)

// PaperAltitudeM is the satellite altitude used throughout the paper (500 km).
const PaperAltitudeM = 500e3

// PaperInclinationDeg is the orbital inclination used throughout the paper.
const PaperInclinationDeg = 53

// MaxPaperSatellites is the largest constellation size evaluated in the
// paper (Table II lists 108 orbital slots).
const MaxPaperSatellites = 108

// WalkerDelta builds a Walker-Delta constellation i:t/p/f — t satellites in
// p equally spaced planes at inclination inclinationDeg, with phasing factor
// f (relative spacing between satellites in adjacent planes, in units of
// 360/t degrees). Satellites are returned plane-major.
func WalkerDelta(totalSats, planes, phasing int, inclinationDeg, altitudeM float64) ([]Elements, error) {
	if planes <= 0 || totalSats <= 0 || totalSats%planes != 0 {
		return nil, fmt.Errorf("orbit: invalid Walker t/p = %d/%d", totalSats, planes)
	}
	perPlane := totalSats / planes
	sats := make([]Elements, 0, totalSats)
	for p := 0; p < planes; p++ {
		raan := 360 * float64(p) / float64(planes)
		for s := 0; s < perPlane; s++ {
			ta := 360*float64(s)/float64(perPlane) + 360*float64(phasing*p)/float64(totalSats)
			sats = append(sats, CircularLEO(altitudeM, inclinationDeg, raan, ta))
		}
	}
	return sats, nil
}

// WalkerShell describes one Walker-Delta shell of a (possibly multi-shell)
// constellation: t/p/f at a given altitude and inclination.
type WalkerShell struct {
	TotalSats      int
	Planes         int
	Phasing        int
	InclinationDeg float64
	AltitudeM      float64
}

// Count returns the shell's satellite count.
func (s WalkerShell) Count() int { return s.TotalSats }

// WalkerShells concatenates the elements of several Walker shells in shell
// order (each shell plane-major, as WalkerDelta returns them). Every shell
// must be a valid Walker pattern at a positive altitude.
func WalkerShells(shells []WalkerShell) ([]Elements, error) {
	if len(shells) == 0 {
		return nil, fmt.Errorf("orbit: no Walker shells")
	}
	var out []Elements
	for i, sh := range shells {
		if !(sh.AltitudeM > 0) {
			return nil, fmt.Errorf("orbit: shell %d: non-positive altitude %v m", i, sh.AltitudeM)
		}
		elems, err := WalkerDelta(sh.TotalSats, sh.Planes, sh.Phasing, sh.InclinationDeg, sh.AltitudeM)
		if err != nil {
			return nil, fmt.Errorf("orbit: shell %d: %w", i, err)
		}
		out = append(out, elems...)
	}
	return out, nil
}

// ParseWalkerShells parses a comma-separated multi-shell spec of the form
// "t/p/f@altkm:incdeg", e.g. "1008/24/1@550:53,360/20/1@600:70". The phasing
// factor f is in units of 360/t degrees, altitude in kilometers and
// inclination in degrees.
func ParseWalkerShells(spec string) ([]WalkerShell, error) {
	if spec == "" {
		return nil, fmt.Errorf("orbit: empty Walker shell spec")
	}
	var shells []WalkerShell
	for _, part := range strings.Split(spec, ",") {
		var sh WalkerShell
		var altKm float64
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d/%d/%d@%f:%f",
			&sh.TotalSats, &sh.Planes, &sh.Phasing, &altKm, &sh.InclinationDeg); err != nil {
			return nil, fmt.Errorf("orbit: bad Walker shell %q (want t/p/f@altkm:incdeg): %w", part, err)
		}
		sh.AltitudeM = altKm * 1e3
		shells = append(shells, sh)
	}
	return shells, nil
}

// tableIIGapPlanes lists the RAANs (degrees) of the 12 gap-filling planes
// added after the first 36 satellites, in the exact order they appear in
// Table II of the paper (columns 2 and 3).
var tableIIGapPlanes = []float64{20, 40, 80, 100, 140, 160, 200, 220, 260, 280, 320, 340}

// TableIIWith returns the paper's 108-slot Table II catalog at an arbitrary
// altitude and inclination — the knob the altitude/inclination ablation
// turns; the paper's own instance, at 500 km / 53°, is
// PaperConstellation(108). The slots come in the paper's exact incremental
// ordering, so that TableIIWith(h, i)[:n] is the configuration the paper
// evaluates with n satellites (n = 6, 12, ..., 108):
//
//   - Satellites 1-36 form a Walker Delta of 6 planes (RAAN 0, 60, ...,
//     300). They are listed anomaly-major: the first six satellites occupy
//     true anomaly 0 across all six planes, the next six occupy true anomaly
//     60, and so on — matching the left column of Table II.
//   - Satellites 37-108 fill the RAAN gaps: 12 additional planes spaced so
//     all planes end up 20 degrees apart, each carrying 6 satellites at true
//     anomalies 0, 60, ..., 300 — matching columns two and three of Table II.
//
// All orbits are circular.
func TableIIWith(altitudeM, inclinationDeg float64) []Elements {
	sats := make([]Elements, 0, MaxPaperSatellites)
	for ta := 0; ta < 360; ta += 60 {
		for raan := 0; raan < 360; raan += 60 {
			sats = append(sats, CircularLEO(altitudeM, inclinationDeg, float64(raan), float64(ta)))
		}
	}
	for _, raan := range tableIIGapPlanes {
		for ta := 0; ta < 360; ta += 60 {
			sats = append(sats, CircularLEO(altitudeM, inclinationDeg, raan, float64(ta)))
		}
	}
	return sats
}

// PaperConstellation returns the first n entries of the Table II catalog.
// n must be a positive multiple of 6 no larger than 108, matching the
// paper's sweep (6, 12, ..., 108 satellites).
func PaperConstellation(n int) ([]Elements, error) {
	return PaperConstellationWith(n, PaperAltitudeM, PaperInclinationDeg)
}

// CheckPaperSize is the one rule for a paper constellation size: a
// positive multiple of 6 no larger than 108, the sizes of the paper's
// sweep. Every entry point that takes a Table II size applies it.
func CheckPaperSize(n int) error {
	if n <= 0 || n > MaxPaperSatellites || n%6 != 0 {
		return fmt.Errorf("orbit: paper constellation size must be a multiple of 6 in [6,108], got %d", n)
	}
	return nil
}

// PaperConstellationWith returns the first n Table II slots at a custom
// altitude and inclination.
func PaperConstellationWith(n int, altitudeM, inclinationDeg float64) ([]Elements, error) {
	if err := CheckPaperSize(n); err != nil {
		return nil, err
	}
	return TableIIWith(altitudeM, inclinationDeg)[:n], nil
}
