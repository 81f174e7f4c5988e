package skyline

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// filterDiff compares the filtered compute of disks with the unfiltered
// D&C. It returns "" when the two agree element for element — Start, End
// and Disk of every arc — and otherwise describes the first difference.
func filterDiff(disks []geom.Disk) string {
	got, err := Compute(disks)
	if err != nil {
		return err.Error()
	}
	want, err := ComputeUnfiltered(disks)
	if err != nil {
		return err.Error()
	}
	if len(got) != len(want) {
		return fmt.Sprintf("filtered compute has %d arcs, unfiltered %d\n got: %v\nwant: %v",
			len(got), len(want), got, want)
	}
	for i, g := range got {
		if w := want[i]; g != w {
			return fmt.Sprintf("arc %d differs: filtered {%.17g %.17g %d}, unfiltered {%.17g %.17g %d}",
				i, g.Start, g.End, g.Disk, w.Start, w.End, w.Disk)
		}
	}
	return ""
}

// requireFilterIdentical asserts that the filtered compute returns exactly
// the unfiltered D&C's arcs, and returns how many disks the prefilter
// dropped.
func requireFilterIdentical(t *testing.T, label string, disks []geom.Disk) int {
	t.Helper()
	if d := filterDiff(disks); d != "" {
		t.Fatalf("%s (n=%d): %s", label, len(disks), d)
	}
	var sc Scratch
	return sc.prefilter(disks)
}

// The prefilter must not change a single bit of the skyline: random
// heterogeneous, homogeneous and dense sets across the kernel's size
// range, then the degenerate families (§4.1 rings, duplicates, concentric
// and hub-tangent disks) where ties and slivers decide the output.
func TestPrefilterBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1301))
	dropped := 0
	gens := []struct {
		name string
		gen  func(*rand.Rand, int) []geom.Disk
	}{
		{"hetero", randomLocalSet},
		{"homog", randomHomogeneousSet},
		{"dense", denseLocalSet},
	}
	for _, n := range []int{8, 16, 128, 175, 1024, 4096} {
		trials := 200
		switch {
		case n >= 4096:
			trials = 4
		case n >= 1024:
			trials = 16
		}
		for _, g := range gens {
			for trial := 0; trial < trials; trial++ {
				dropped += requireFilterIdentical(t, g.name, g.gen(rng, n))
			}
		}
	}
	if dropped == 0 {
		t.Fatal("the prefilter dropped no disk on any random set; the test does not reach it")
	}

	for _, k := range []int{3, 5, 8, 16, 40, 100} {
		requireFilterIdentical(t, "section41", section41Disks(k))
	}
	dup := make([]geom.Disk, 32)
	for i := range dup {
		dup[i] = geom.Disk{C: geom.Pt(0.1, 0.1), R: 1}
	}
	requireFilterIdentical(t, "duplicates", dup)
	for trial := 0; trial < 50; trial++ {
		// Every disk twice, interleaved: each survivor has a twin.
		base := randomLocalSet(rng, 8+rng.Intn(100))
		twins := make([]geom.Disk, 0, 2*len(base))
		for _, d := range base {
			twins = append(twins, d, d)
		}
		rng.Shuffle(len(twins), func(i, j int) { twins[i], twins[j] = twins[j], twins[i] })
		requireFilterIdentical(t, "duplicated-random", twins)
	}
	for _, c := range []geom.Point{geom.Pt(0, 0), geom.Pt(0.3, -0.2)} {
		conc := make([]geom.Disk, 40)
		for i := range conc {
			conc[i] = geom.Disk{C: c, R: 1 + float64(i)/40}
		}
		requireFilterIdentical(t, "concentric", conc)
		rng.Shuffle(len(conc), func(i, j int) { conc[i], conc[j] = conc[j], conc[i] })
		requireFilterIdentical(t, "concentric-shuffled", conc)
	}
	for _, n := range []int{8, 24, 64} {
		tangent := make([]geom.Disk, n)
		for i := range tangent {
			r := 1 + float64(i%3)/2
			tangent[i] = geom.Disk{C: geom.Unit(geom.TwoPi * float64(i) / float64(n)).Scale(r), R: r}
		}
		requireFilterIdentical(t, "hub-tangent", tangent)
	}
	for trial := 0; trial < 50; trial++ {
		// Hub-tangent disks mixed into a random set, plus a small hub disk.
		mixed := randomLocalSet(rng, 8+rng.Intn(120))
		mixed = append(mixed, geom.Disk{R: 0.5})
		for i := 0; i < 6; i++ {
			r := 1 + rng.Float64()
			mixed = append(mixed, geom.Disk{C: geom.Unit(rng.Float64() * geom.TwoPi).Scale(r), R: r})
		}
		requireFilterIdentical(t, "hub-tangent-mixed", mixed)
	}
	requireFilterIdentical(t, "ring", ringDisks(64))
}

// A disk swallowed by a larger one is dropped, a ring of equal disks
// loses nothing, and a NaN ray distance never causes a drop.
func TestPrefilterDrops(t *testing.T) {
	var sc Scratch
	inner := []geom.Disk{{R: 2}}
	for i := 0; i < 9; i++ {
		inner = append(inner, geom.Disk{C: geom.Unit(float64(i)).Scale(0.3), R: 1})
	}
	if got := sc.prefilter(inner); got != 9 || len(sc.keep) != 1 || sc.keep[0] != 0 {
		t.Errorf("big hub over nine small disks: dropped %d, kept %v, want 9 and [0]", got, sc.keep)
	}
	if got := sc.rank; len(got) != len(inner)+1 || got[0] != 0 || got[1] != 1 || got[len(inner)] != 1 {
		t.Errorf("rank = %v, want 0 then 1 ×%d", got, len(inner))
	}
	if got := sc.prefilter(ringDisks(16)); got != 0 {
		t.Errorf("ring of 16: dropped %d, want 0", got)
	}
	// A disk that does not contain the hub has NaN ray distances on the
	// far side; ComputeIntoUnchecked's contract leaves the result
	// unspecified, but the filter must keep the disk rather than drop it.
	bad := append([]geom.Disk{{C: geom.Pt(5, 0), R: 0.5}}, inner...)
	if !math.IsNaN(bad[0].RayDist(math.Pi)) {
		t.Fatal("test disk has no NaN ray distance")
	}
	sc.prefilter(bad)
	if len(sc.keep) == 0 || sc.keep[0] != 0 {
		t.Errorf("disk with NaN ray distances dropped: kept %v", sc.keep)
	}
}

// Two disk pairs related by a homothety about the hub, (a, b) and
// (λa, λb), cross at the same angle, but the two crossings are computed
// from different operands and may differ in the last bits. When the small
// pair reaches the merge that meets the large pair's crossing, Step 1
// keeps the smaller of the two coincident breakpoints, so without
// canonicalBoundaries the unfiltered D&C would carry the small pair's
// value into the skyline and the filtered one, which drops the small
// pair, the large pair's own. FuzzSkylineInvariants found this family
// (its corpus entry ec86445837f39bad); here 500 constructed sets must come
// out bit-identical, the canonical pass must be what makes them so in
// some of them, and on random sets the pass must change nothing.
func TestPrefilterCoincidentCrossings(t *testing.T) {
	rng := rand.New(rand.NewSource(1307))
	scale := func(d geom.Disk, l float64) geom.Disk { return geom.Disk{C: d.C.Scale(l), R: d.R * l} }
	moved := 0
	const trials = 500
	for trial := 0; trial < trials; trial++ {
		big := randomLocalSet(rng, 2)
		lambda := 0.5 + 0.3*rng.Float64()
		disks := []geom.Disk{scale(big[0], lambda), scale(big[1], lambda)}
		for _, d := range randomLocalSet(rng, 4) {
			disks = append(disks, scale(d, 0.5))
		}
		disks = append(disks, big...)
		requireFilterIdentical(t, fmt.Sprintf("homothetic trial %d", trial), disks)
		if canonicalMoves(disks) > 0 {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("canonicalBoundaries moved no breakpoint; the test no longer reaches coincident crossings")
	}
	t.Logf("canonicalBoundaries moved a breakpoint in %d of %d homothetic sets", moved, trials)

	for trial := 0; trial < 200; trial++ {
		disks := randomLocalSet(rng, 2+rng.Intn(100))
		if k := canonicalMoves(disks); k > 0 {
			t.Fatalf("random set %d: canonicalBoundaries moved %d breakpoints of a generic skyline", trial, k)
		}
	}
}

// canonicalMoves returns how many breakpoints canonicalBoundaries changes
// in the unfiltered D&C's skyline of disks.
func canonicalMoves(disks []geom.Disk) int {
	raw := sortOracleRaw(disks)
	canon := append(Skyline(nil), raw...)
	canonicalBoundaries(disks, canon)
	k := 0
	for i := range raw {
		if raw[i] != canon[i] {
			k++
		}
	}
	return k
}
