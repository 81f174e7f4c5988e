package geom

import "math"

// TwoPi is 2π, the full angular range of a skyline.
const TwoPi = 2 * math.Pi

// AngleEps is the tolerance used when comparing angles (radians). Skyline
// breakpoints are derived from atan2 of intersection points, so angular
// noise is on the order of Eps divided by the point's distance from the
// hub; 1e-9 rad is comfortably above that for the paper's workloads.
const AngleEps = 1e-9

// NormalizeAngle maps an angle to the canonical range [0, 2π). An angle
// already in range is returned as is, which is bit-identical to the
// math.Mod path (fmod is exact) without paying for it.
func NormalizeAngle(theta float64) float64 {
	if theta >= 0 && theta < TwoPi {
		return theta
	}
	theta = math.Mod(theta, TwoPi)
	if theta < 0 {
		theta += TwoPi
	}
	// math.Mod can return values equal to TwoPi after the correction when
	// theta is a tiny negative number; fold those back to 0.
	if theta >= TwoPi {
		theta -= TwoPi
	}
	return theta
}

// AngleEq reports whether two angles are equal within AngleEps, treating 0
// and 2π as identical.
func AngleEq(a, b float64) bool {
	d := math.Abs(NormalizeAngle(a) - NormalizeAngle(b))
	return d <= AngleEps || TwoPi-d <= AngleEps
}

// AngleLess reports whether a < b − AngleEps (a strictly precedes b with
// tolerance). Both angles are interpreted on the line, not the circle:
// callers that need circular ordering should normalize first.
func AngleLess(a, b float64) bool { return a < b-AngleEps }

// AngleInSpan reports whether angle x lies in the closed linear span
// [a, b] (a ≤ b expected), within AngleEps at the endpoints.
func AngleInSpan(x, a, b float64) bool {
	return x >= a-AngleEps && x <= b+AngleEps
}

// AngleStrictlyInSpan reports whether angle x lies strictly inside the
// linear span (a, b), i.e. more than AngleEps away from both endpoints.
func AngleStrictlyInSpan(x, a, b float64) bool {
	return x > a+AngleEps && x < b-AngleEps
}

// CCWDelta returns the counterclockwise angular distance from a to b in
// [0, 2π).
func CCWDelta(a, b float64) float64 {
	return NormalizeAngle(b - a)
}

// Degrees converts radians to degrees. Used only for human-readable output.
func Degrees(rad float64) float64 { return rad * 180 / math.Pi }

// Radians converts degrees to radians.
func Radians(deg float64) float64 { return deg * math.Pi / 180 }
