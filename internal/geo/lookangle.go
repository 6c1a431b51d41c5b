package geo

import "math"

// LookAngle describes the geometry of a line-of-sight from an observer to a
// target: elevation above the local horizon and the straight-line slant
// range.
type LookAngle struct {
	ElevationRad float64
	SlantRangeM  float64
}

// ENU returns the east, north, and up unit vectors of the local tangent
// frame at geodetic position p (on the spherical Earth).
func ENU(p LLA) (east, north, up Vec3) {
	lat, lon := p.Radians()
	sinLat, cosLat := math.Sin(lat), math.Cos(lat)
	sinLon, cosLon := math.Sin(lon), math.Cos(lon)
	east = Vec3{-sinLon, cosLon, 0}
	north = Vec3{-sinLat * cosLon, -sinLat * sinLon, cosLat}
	up = Vec3{cosLat * cosLon, cosLat * sinLon, sinLat}
	return east, north, up
}

// Frame is the precomputed observation frame of a fixed observer: its ECEF
// position and local up vector, all a look angle reads of the ENU basis.
// Callers that evaluate many look angles from the same observer (one ground
// station against a whole constellation, or one satellite position against
// every peer at a topology instant) build the frame once and amortize the
// trigonometry that Look would otherwise redo per target. Frame.Look
// performs exactly the floating-point operations of the package-level Look,
// in the same order, so results are bit-identical.
type Frame struct {
	ECEF Vec3
	Up   Vec3
}

// NewFrame precomputes the observation frame at geodetic position obs.
func NewFrame(obs LLA) Frame {
	_, _, up := ENU(obs)
	return Frame{ECEF: obs.ECEF(), Up: up}
}

// Look computes the look angle from the frame's observer to a target at
// ECEF position target.
func (f Frame) Look(target Vec3) LookAngle {
	d := target.Sub(f.ECEF)
	u := d.Dot(f.Up)
	rng := d.Norm()
	la := LookAngle{SlantRangeM: rng}
	if rng == 0 {
		return la
	}
	la.ElevationRad = math.Asin(clamp(u/rng, -1, 1))
	return la
}

// AboveHorizon reports whether the target sits at or above the observer's
// local horizon (elevation >= 0), using only a subtraction and a dot
// product. It is the cheap prefilter for Look: a target below the horizon
// can never meet a non-negative elevation mask.
func (f Frame) AboveHorizon(target Vec3) bool {
	return target.Sub(f.ECEF).Dot(f.Up) >= 0
}

// Look computes the look angle from an observer at geodetic position obs to
// a target at ECEF position target.
func Look(obs LLA, target Vec3) LookAngle {
	return NewFrame(obs).Look(target)
}

// ElevationBetween computes the elevation of the line-of-sight between two
// ECEF positions as seen from the lower endpoint. For two spaceborne nodes
// (e.g. an inter-satellite link) this is the grazing elevation relative to
// the lower node's local horizon; callers typically use it to decide whether
// a path dips into the atmosphere.
func ElevationBetween(a, b Vec3) float64 {
	lo, hi := a, b
	if lo.Norm() > hi.Norm() {
		lo, hi = hi, lo
	}
	return Look(ToLLA(lo), hi).ElevationRad
}

// LineOfSight reports whether the straight segment between two ECEF
// positions clears the Earth's surface (plus an optional clearance margin in
// meters above the surface).
func LineOfSight(a, b Vec3, clearanceM float64) bool {
	r := EarthRadiusM + clearanceM
	// Minimum distance from Earth's center to the segment a-b.
	ab := b.Sub(a)
	t := -a.Dot(ab) / ab.Dot(ab)
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	closest := a.Add(ab.Scale(t))
	return closest.Norm() >= r
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Deg converts radians to degrees.
func Deg(rad float64) float64 { return rad * 180 / math.Pi }

// Rad converts degrees to radians.
func Rad(deg float64) float64 { return deg * math.Pi / 180 }
