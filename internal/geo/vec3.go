// Package geo provides the geodetic substrate for the QNTN simulator:
// Earth-fixed coordinates, latitude/longitude/altitude conversions, local
// tangent (ENU) frames, and look-angle computations (elevation, slant
// range) between ground stations, high-altitude platforms, and satellites.
//
// The package uses a spherical Earth of radius EarthRadiusM, consistent with
// the paper's orbital configuration (semi-major axis 6871 km for a 500 km
// altitude, i.e. an Earth radius of 6371 km).
package geo

import "math"

// EarthRadiusM is the mean spherical Earth radius in meters. The paper's
// Table II uses a semi-major axis of 6871 km for 500 km altitude orbits,
// implying this radius.
const EarthRadiusM = 6371e3

// Vec3 is a three-dimensional Cartesian vector in meters. It is used for
// Earth-centered Earth-fixed (ECEF) and Earth-centered inertial (ECI)
// positions as well as local east-north-up offsets.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s * v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the inner product v · w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v × w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Distance returns the Euclidean distance between v and w in meters.
func (v Vec3) Distance(w Vec3) float64 { return v.Sub(w).Norm() }
