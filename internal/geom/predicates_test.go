package geom

import (
	"math"
	"math/rand"
	"testing"
)

// TestLinkWithinBoundary pins the canonical link predicate at the exact
// boundary: distance r and r ± Eps/2 must be accepted, r + 2·Eps rejected,
// for small and large radii alike.
func TestLinkWithinBoundary(t *testing.T) {
	for _, r := range []float64{0.25, 1, 2, 5, 100} {
		for _, tc := range []struct {
			name string
			dist float64
			want bool
		}{
			{"exact-r", r, true},
			{"r-minus-half-eps", r - Eps/2, true},
			{"r-plus-half-eps", r + Eps/2, true},
			{"r-plus-2eps", r + 2*Eps, false},
			{"well-inside", r / 2, true},
			{"well-outside", 2 * r, false},
		} {
			if got := LinkWithin(tc.dist, r); got != tc.want {
				t.Errorf("LinkWithin(%g, %g) [%s] = %v, want %v", tc.dist, r, tc.name, got, tc.want)
			}
		}
	}
}

// TestLinkWithin2MatchesLinear is the heart of the unified policy: the
// squared-space predicate must accept exactly the same distances as the
// linear one. The old grid filter compared d² against r²+Eps, which for
// r > 0.5 is stricter than d ≤ r+Eps by up to (2r−1)·Eps and dropped true
// boundary neighbors.
func TestLinkWithin2MatchesLinear(t *testing.T) {
	for _, r := range []float64{0.25, 0.5, 1, 2, 5, 100} {
		for _, dist := range []float64{
			r, r - Eps/2, r + Eps/2, r + 2*Eps, r - 2*Eps,
			r / 2, 2 * r, 0,
		} {
			if dist < 0 {
				continue
			}
			lin := LinkWithin(dist, r)
			sq := LinkWithin2(dist*dist, r)
			if lin != sq {
				t.Errorf("r=%g dist=%g: LinkWithin=%v but LinkWithin2=%v", r, dist, lin, sq)
			}
		}
	}
}

// TestLinkWithin2RegressionLargeRadius reproduces the pre-fix divergence
// directly: at r = 5, a point at distance r + Eps/2 satisfies the linear
// predicate but fails the old squared comparison d² ≤ r² + Eps.
func TestLinkWithin2RegressionLargeRadius(t *testing.T) {
	const r = 5.0
	dist := r + Eps/2
	if dist*dist <= r*r+Eps {
		t.Fatalf("test premise broken: old-style comparison accepts d=%g at r=%g", dist, r)
	}
	if !LinkWithin(dist, r) {
		t.Fatalf("LinkWithin(%g, %g) = false, want true", dist, r)
	}
	if !LinkWithin2(dist*dist, r) {
		t.Fatalf("LinkWithin2(%g, %g) = false, want true (old squared-space bug)", dist*dist, r)
	}
}

func TestReaches(t *testing.T) {
	p, q := Pt(0, 0), Pt(3, 4) // distance 5
	if !Reaches(p, q, 5) {
		t.Errorf("Reaches at exact radius = false, want true")
	}
	if Reaches(p, q, 4.999) {
		t.Errorf("Reaches beyond radius = true, want false")
	}
}

func TestZeroLengthAndLengthEq(t *testing.T) {
	if !ZeroLength(0) || !ZeroLength(Eps/2) || ZeroLength(2*Eps) {
		t.Errorf("ZeroLength boundary behavior wrong")
	}
	if !LengthEq(1, 1+Eps/2) || LengthEq(1, 1+2*Eps) || !LengthEq(5, 5) {
		t.Errorf("LengthEq boundary behavior wrong")
	}
}

func TestRhoCmp(t *testing.T) {
	for _, tc := range []struct {
		a, b float64
		want int
	}{
		{1, 1, 0},
		{1 + RhoEps/2, 1, 0},
		{1 - RhoEps/2, 1, 0},
		{1 + 2*RhoEps, 1, +1},
		{1 - 2*RhoEps, 1, -1},
		{2, 1, +1},
		{1, 2, -1},
	} {
		if got := RhoCmp(tc.a, tc.b); got != tc.want {
			t.Errorf("RhoCmp(%g, %g) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestRhoCovers(t *testing.T) {
	if !RhoCovers(1, 1) || !RhoCovers(1, 1+RhoEps/2) || RhoCovers(1, 1+2*RhoEps) {
		t.Errorf("RhoCovers boundary behavior wrong")
	}
}

func TestAngleSliver(t *testing.T) {
	if !AngleSliver(1, 1) || !AngleSliver(1, 1+AngleEps/2) || AngleSliver(1, 1+2*AngleEps) {
		t.Errorf("AngleSliver boundary behavior wrong")
	}
}

func TestCoversAngle(t *testing.T) {
	if !CoversAngle(1, 1, 2) || !CoversAngle(2, 1, 2) || !CoversAngle(1.5, 1, 2) {
		t.Errorf("CoversAngle must include endpoints and interior")
	}
	if CoversAngle(2+2*AngleEps, 1, 2) || CoversAngle(1-2*AngleEps, 1, 2) {
		t.Errorf("CoversAngle must reject angles beyond AngleEps outside the span")
	}
}

// TestRhoEpsEqualsEps pins the policy decision of this layer: the envelope
// tie tolerance and the link tolerance are one and the same constant. If
// this ever changes, docs/NUMERICS.md and the tie-break tests in
// internal/skyline must change with it.
func TestRhoEpsEqualsEps(t *testing.T) {
	if RhoEps != Eps {
		t.Fatalf("RhoEps = %g, Eps = %g: the unified policy requires them equal", RhoEps, Eps)
	}
	if math.Abs(AngleEps-1e-9) > 0 {
		t.Fatalf("AngleEps = %g, want 1e-9 (documented in docs/NUMERICS.md)", AngleEps)
	}
}

// guardNorms returns norms at and around threshold t: exact, a few ulps
// off, and offsets from 1e-15 to 1e-3 either side, plus a zero norm.
func guardNorms(t float64) []float64 {
	out := []float64{0, t, math.Nextafter(t, 0), math.Nextafter(t, math.Inf(1))}
	for _, d := range []float64{1e-15, 1e-13, 1e-11, 1e-10, 1e-9, 2e-9, 1e-8, 1e-6, 1e-3} {
		out = append(out, t+d, t-d, t*(1+d), t*(1-d))
	}
	var keep []float64
	for _, n := range out {
		if n >= 0 {
			keep = append(keep, n)
		}
	}
	return keep
}

// guardDisks yields disks whose center norms sit on and around the
// threshold norm, in random directions, plus random local disks and
// extreme magnitudes.
func guardDisks(rng *rand.Rand, r float64, norms []float64) []Disk {
	var out []Disk
	for _, n := range norms {
		e := Unit(rng.Float64() * TwoPi)
		out = append(out, Disk{C: e.Scale(n), R: r}, Disk{C: Pt(n, 0), R: r}, Disk{C: Pt(0, -n), R: r})
	}
	return out
}

// TestNormGuardsMatchExact: NormLengthEq, ReachBelow and FloorAbove settle
// clear cases from the squared norm; on random inputs and on inputs at
// and around each predicate's threshold they must return exactly what the
// Hypot expression they replace returns.
func TestNormGuardsMatchExact(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	check := func(d Disk, v float64) {
		t.Helper()
		if got, want := NormLengthEq(d.C, d.R), LengthEq(d.C.Norm(), d.R); got != want {
			t.Fatalf("NormLengthEq(%v, %v) = %v, want %v", d.C, d.R, got, want)
		}
		if got, want := ReachBelow(d, v), RhoCmp(d.C.Norm()+d.R, v) < 0; got != want {
			t.Fatalf("ReachBelow(%v, %v) = %v, want %v", d, v, got, want)
		}
		if got, want := FloorAbove(d, v), RhoCmp(v, d.R-d.C.Norm()) < 0; got != want {
			t.Fatalf("FloorAbove(%v, %v) = %v, want %v", d, v, got, want)
		}
	}
	for i := 0; i < 2_000; i++ {
		r := 0.5 + rng.Float64()*3
		v := rng.Float64() * 8
		check(randomLocalDisk(rng), v)
		// At each predicate's threshold: ‖c‖ = r (NormLengthEq),
		// ‖c‖ + r = v − RhoEps (ReachBelow), r − ‖c‖ = v + RhoEps
		// (FloorAbove), and Eps either side of the first.
		for _, thr := range []float64{r, r - Eps, r + Eps, v - RhoEps - r, r - RhoEps - v} {
			for _, d := range guardDisks(rng, r, guardNorms(thr)) {
				check(d, v)
			}
		}
	}
	for _, r := range []float64{1e-300, 1e-160, 1e-9, 1, 1e160, 1e300} {
		for _, v := range []float64{0, -1, 1, 1e-300, 1e300, math.Inf(1), math.NaN()} {
			for _, c := range []Point{{0, 0}, {r, 0}, {1e-170, 1e-170}, {1e200, 1e200}, {math.MaxFloat64, 0}, {math.NaN(), 0}} {
				check(Disk{C: c, R: r}, v)
			}
		}
	}
}

// TestAwayInSpanMatchesAngle: the cross-product test must agree with
// AngleInSpan on the atan2 angle of −c for random centers and spans, and
// for −c placed exactly on, and from 1e-12 to 1e-4 rad either side of,
// each span endpoint — including spans that start at 0 or end at 2π.
func TestAwayInSpanMatchesAngle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	check := func(c Point, a, b float64) {
		t.Helper()
		got := AwayInSpan(c, a, b, Unit(a), Unit(b))
		if want := AngleInSpan(NormalizeAngle(c.Angle()+math.Pi), a, b); got != want {
			t.Fatalf("AwayInSpan(%v, %v, %v) = %v, want %v", c, a, b, got, want)
		}
	}
	offsets := []float64{0, 1e-12, -1e-12, 1e-10, -1e-10, 1e-9, -1e-9, 2e-9, -2e-9, 1e-8, -1e-8, 1e-6, -1e-6, 2e-6, -2e-6, 1e-4, -1e-4}
	for i := 0; i < 10_000; i++ {
		a := rng.Float64() * TwoPi
		b := a + rng.Float64()*(TwoPi-a)
		switch i % 5 {
		case 0:
			a = 0
		case 1:
			b = TwoPi
		case 2:
			b = a + rng.Float64()*1e-3
		case 3:
			a, b = TwoPi-rng.Float64()*1e-3, TwoPi+rng.Float64()*1e-3 // past 2π: linear only
		}
		norm := math.Pow(10, rng.Float64()*6-3)
		check(Unit(rng.Float64()*TwoPi).Scale(norm), a, b)
		for _, end := range []float64{a, b} {
			for _, off := range offsets {
				// −c at angle end+off, so c at end+off+π.
				check(Unit(end+off+math.Pi).Scale(norm), a, b)
			}
		}
	}
	for _, c := range []Point{{0, 0}, {1e-300, 0}, {0, -1e-300}, {1e300, 1e300}} {
		check(c, 0, 1)
		check(c, 1, 4)
	}
}
