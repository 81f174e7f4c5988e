package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNormalizeAngle(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{TwoPi, 0},
		{-math.Pi / 2, 3 * math.Pi / 2},
		{3 * TwoPi, 0},
		{TwoPi + 1, 1},
		{-TwoPi - 1, TwoPi - 1},
	}
	for _, c := range cases {
		if got := NormalizeAngle(c.in); !almostEq(got, c.want, 1e-9) {
			t.Errorf("NormalizeAngle(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNormalizeAngleRange(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		got := NormalizeAngle(x)
		return got >= 0 && got < TwoPi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAngleEq(t *testing.T) {
	if !AngleEq(0, TwoPi) {
		t.Error("0 and 2π should be equal angles")
	}
	if !AngleEq(1, 1+AngleEps/2) {
		t.Error("angles within AngleEps should be equal")
	}
	if AngleEq(1, 1.001) {
		t.Error("angles 1e-3 apart should differ")
	}
	if !AngleEq(-math.Pi, math.Pi) {
		t.Error("-π and π should be equal angles")
	}
}

func TestAngleSpans(t *testing.T) {
	if !AngleInSpan(1.0, 0.5, 1.5) {
		t.Error("1.0 should be in [0.5, 1.5]")
	}
	if !AngleInSpan(0.5, 0.5, 1.5) {
		t.Error("endpoints are in the closed span")
	}
	if AngleStrictlyInSpan(0.5, 0.5, 1.5) {
		t.Error("endpoints are not strictly inside")
	}
	if !AngleStrictlyInSpan(1.0, 0.5, 1.5) {
		t.Error("1.0 should be strictly inside (0.5, 1.5)")
	}
	if AngleInSpan(2.0, 0.5, 1.5) {
		t.Error("2.0 is outside [0.5, 1.5]")
	}
}

func TestCCWDelta(t *testing.T) {
	if got := CCWDelta(0, math.Pi); !almostEq(got, math.Pi, 1e-12) {
		t.Errorf("CCWDelta(0, π) = %v", got)
	}
	if got := CCWDelta(3*math.Pi/2, math.Pi/2); !almostEq(got, math.Pi, 1e-12) {
		t.Errorf("CCWDelta(3π/2, π/2) = %v, want π (wraps through 0)", got)
	}
	if got := CCWDelta(1, 1); got != 0 {
		t.Errorf("CCWDelta(1, 1) = %v, want 0", got)
	}
}

func TestDegreesRadians(t *testing.T) {
	if got := Degrees(math.Pi); !almostEq(got, 180, 1e-9) {
		t.Errorf("Degrees(π) = %v", got)
	}
	if got := Radians(90); !almostEq(got, math.Pi/2, 1e-12) {
		t.Errorf("Radians(90) = %v", got)
	}
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		x = math.Mod(x, 1e6)
		return almostEq(Degrees(Radians(x)), x, 1e-6*(1+math.Abs(x)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// modNormalize is NormalizeAngle without its in-range shortcut: every
// input goes through math.Mod.
func modNormalize(theta float64) float64 {
	theta = math.Mod(theta, TwoPi)
	if theta < 0 {
		theta += TwoPi
	}
	if theta >= TwoPi {
		theta -= TwoPi
	}
	return theta
}

// TestNormalizeAngleMatchesMod: returning an in-range angle untouched is
// bit-identical to the math.Mod path, on the range's edges, on special
// values, on random angles and on random bit patterns.
func TestNormalizeAngleMatchesMod(t *testing.T) {
	in := []float64{
		0, math.Copysign(0, -1), TwoPi, math.Nextafter(TwoPi, 0), math.Nextafter(TwoPi, 7),
		-TwoPi, math.Nextafter(0, -1), -1e-300, math.SmallestNonzeroFloat64, math.Pi,
		1e300, -1e300, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100_000; i++ {
		in = append(in, (rng.Float64()*2-1)*8*math.Pi)
	}
	for i := 0; i < 10_000; i++ {
		in = append(in, math.Float64frombits(rng.Uint64()))
	}
	for _, x := range in {
		if got, want := NormalizeAngle(x), modNormalize(x); !sameBits(got, want) {
			t.Fatalf("NormalizeAngle(%v) = %v, want the math.Mod path's %v", x, got, want)
		}
	}
}
