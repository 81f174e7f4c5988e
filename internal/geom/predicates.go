package geom

import "math"

// This file is the repository's single epsilon-comparison layer. Every
// tolerance-bearing comparison outside package geom must go through one of
// these predicates (or the angle predicates in angle.go) rather than
// spelling out a raw `x <= y+Eps`; `make lint` enforces this (the
// epspolicy analyzer).
//
// The policy, stated once (see docs/NUMERICS.md for the full discussion):
//
//   - All distance-like quantities — link distances, radii, envelope
//     values ρ(θ) — are compared in LINEAR units with the absolute
//     tolerance Eps. A squared-space comparison must use the squared
//     image of the same acceptance set, (r+Eps)², never r²+Eps: the two
//     differ by 2rEps, which for r > 0.5 makes the squared form stricter
//     and lets two pipelines disagree on a boundary-distance link.
//   - Angles are compared with AngleEps (angle.go).
//   - Envelope-value ties are resolved by RhoCmp with RhoEps, which is
//     deliberately the same magnitude as Eps: ρ values are linear-unit
//     distances like any other, and a divergent tie tolerance would let
//     the skyline algorithms disagree with the link predicates about
//     which disk owns a boundary ray.

// RhoEps is the tolerance for comparing envelope (ray-distance) values
// ρ(θ). ρ accumulates a dot product and a square root of rounding error,
// but both are relative errors on O(1)-to-O(10) linear-unit values, so the
// same absolute tolerance as Eps applies; keeping the two identical is
// what makes the skyline's tie-breaking consistent with the link layer.
const RhoEps = Eps

// LinkWithin is the canonical link predicate: a node at distance dist is
// within transmission radius r, with Eps of tolerance. Every link decision
// in the repository — graph construction, engine neighbor discovery,
// incremental dirty-set discovery, local-set validation — must reduce to
// this comparison so the pipelines cannot disagree on boundary links.
func LinkWithin(dist, r float64) bool { return dist <= r+Eps }

// LinkWithin2 is LinkWithin in squared space: it accepts exactly the
// distances d with d ≤ r+Eps, taking d² instead of d. Use it where the
// squared distance is already at hand (spatial-grid filters) and the sqrt
// would be wasted; the threshold is (r+Eps)², NOT r²+Eps, so the
// acceptance set matches LinkWithin up to one ulp of rounding in the
// squaring.
func LinkWithin2(dist2, r float64) bool {
	t := r + Eps
	return dist2 <= t*t
}

// Reaches reports whether a transmitter at p with radius r reaches a
// receiver at q, via LinkWithin.
func Reaches(p, q Point, r float64) bool { return LinkWithin(p.Dist(q), r) }

// ZeroLength reports whether a non-negative length (a distance or a norm)
// is zero within Eps.
func ZeroLength(d float64) bool { return d <= Eps }

// LengthEq reports whether two linear-unit values (radii, distances,
// envelope values) are equal within Eps.
func LengthEq(a, b float64) bool { return math.Abs(a-b) <= Eps }

// RhoCmp compares two envelope values with RhoEps of tolerance: −1 when
// a < b − RhoEps, +1 when a > b + RhoEps, 0 when they are tied. Callers
// resolve ties with a deterministic rule (the skyline's canonical
// tie-break: larger radius, then lower index), never by raw float order.
func RhoCmp(a, b float64) int {
	switch {
	case a > b+RhoEps:
		return +1
	case a < b-RhoEps:
		return -1
	default:
		return 0
	}
}

// RhoCovers reports whether a point at ray distance d from the hub is
// within the envelope value rho, with RhoEps of tolerance — the radial
// membership predicate behind Skyline.Contains.
func RhoCovers(rho, d float64) bool { return d <= rho+RhoEps }

// AngleSliver reports whether the linear span [a, b] (a ≤ b expected) is
// too narrow to be a real arc — at most AngleEps wide. The skyline
// algorithms drop such spans and extend a neighboring arc over them.
func AngleSliver(a, b float64) bool { return b-a <= AngleEps }

// CoversAngle reports whether an arc spanning [start, end] (linear span,
// normalized, start ≤ end) covers the angle x within AngleEps at the
// endpoints. It is the arc-membership predicate used by the runtime
// invariant checks.
func CoversAngle(x, start, end float64) bool { return AngleInSpan(x, start, end) }

// The predicates below decide a comparison involving a norm ‖c‖ exactly as
// the Hypot-based expression in their doc comment does, but first try to
// settle it from c.Norm2() with no square root. The squared test only
// answers when the norm lies outside a guard band of guardRel·scale around
// the threshold, where scale bounds the magnitudes involved; the band is
// seven orders of magnitude wider than the few ulps of rounding either form
// accumulates, so the two forms cannot disagree there, and inside it the
// exact expression decides. The kinetic repair prunes run these once per
// candidate disk, so the saved Hypot calls add up.
const guardRel = 1e-9

// normBelow compares ‖c‖ (given as n2 = ‖c‖²) with t under the guard band
// m: +1 when ‖c‖ < t − m, −1 when ‖c‖ > t + m, 0 when the band cannot
// tell (or an operand is NaN). A bound outside [2⁻⁵⁰⁰, 2⁵⁰⁰] is not
// squared, since its square could underflow or overflow.
func normBelow(n2, t, m float64) int {
	const tiny, huge = 0x1p-500, 0x1p500
	if lo := t - m; lo > tiny && lo < huge && n2 < lo*lo {
		return +1
	}
	hi := t + m
	if hi < 0 || (hi > tiny && hi < huge && n2 > hi*hi) {
		return -1
	}
	return 0
}

// NormLengthEq reports LengthEq(c.Norm(), r): whether ‖c‖ equals the
// length r within Eps — for a disk B(c, r), whether its circle passes
// through the origin (the hub-tangent case of the skyline).
func NormLengthEq(c Point, r float64) bool {
	n2 := c.Norm2()
	m := guardRel * (1 + math.Abs(r))
	if normBelow(n2, r-Eps, m) > 0 || normBelow(n2, r+Eps, m) < 0 {
		return false
	}
	return LengthEq(c.Norm(), r)
}

// ReachBelow reports RhoCmp(d.C.Norm()+d.R, v) < 0: whether the disk's
// largest ray distance from the origin, ‖C‖ + R, lies more than RhoEps
// below v, so d can neither exceed nor tie an envelope whose values are
// all at least v.
func ReachBelow(d Disk, v float64) bool {
	m := guardRel * (1 + math.Abs(v) + math.Abs(d.R))
	if s := normBelow(d.C.Norm2(), v-RhoEps-d.R, m); s != 0 {
		return s > 0
	}
	return RhoCmp(d.C.Norm()+d.R, v) < 0
}

// FloorAbove reports RhoCmp(v, d.R-d.C.Norm()) < 0: whether the disk's
// smallest ray distance from the origin, R − ‖C‖, lies more than RhoEps
// above v, so nothing that peaks at v can exceed or tie d anywhere.
func FloorAbove(d Disk, v float64) bool {
	m := guardRel * (1 + math.Abs(v) + math.Abs(d.R))
	if s := normBelow(d.C.Norm2(), d.R-RhoEps-v, m); s != 0 {
		return s > 0
	}
	return RhoCmp(v, d.R-d.C.Norm()) < 0
}

// AwayInSpan reports AngleInSpan(NormalizeAngle(c.Angle()+π), a, b): whether
// the direction of −c lies in the linear span [a, b] within AngleEps. ea
// and eb must be Unit(a) and Unit(b). For spans inside [0, 2π] and
// narrower than π, the side of −c against ea and eb (two cross products)
// settles every case where −c is more than about 1e-6 rad from both
// endpoints — far beyond AngleEps plus the rounding of atan2 — and only
// the rest pay for the atan2. (A span reaching past 0 or 2π is circular
// to the cross products but not to the linear AngleInSpan.)
func AwayInSpan(c Point, a, b float64, ea, eb Point) bool {
	if a >= 0 && b <= TwoPi && b-a < math.Pi {
		m := 1e-6 * (math.Abs(c.X) + math.Abs(c.Y))
		// −c is left of ea (past a) and right of eb (before b).
		sa, sb := -ea.Cross(c), eb.Cross(c)
		if sa > m && sb > m {
			return true
		}
		if sa < -m || sb < -m {
			return false
		}
	}
	return AngleInSpan(NormalizeAngle(c.Angle()+math.Pi), a, b)
}
