package skyline

import (
	"math"
	"testing"

	"repro/internal/geom"
)

// algorithms lists every skyline constructor for table-driven cross-checks.
var algorithms = []struct {
	name string
	fn   func([]geom.Disk) (Skyline, error)
}{
	{"dnc", Compute},
	{"naive", ComputeNaive},
	{"incremental", ComputeIncremental},
}

func TestSingleDisk(t *testing.T) {
	disks := []geom.Disk{geom.NewDisk(0.2, 0.1, 1)}
	for _, alg := range algorithms {
		s, err := alg.fn(disks)
		if err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
		if len(s) != 1 || s[0].Disk != 0 {
			t.Errorf("%s: skyline of one disk = %v, want one full arc", alg.name, s)
		}
		checkEnvelope(t, disks, s, alg.name)
	}
}

func TestTwoOverlappingDisks(t *testing.T) {
	// Two unit disks whose centers are 1 apart; both contain the origin
	// placed between them. Each contributes exactly one arc.
	disks := []geom.Disk{
		geom.NewDisk(-0.5, 0, 1),
		geom.NewDisk(0.5, 0, 1),
	}
	for _, alg := range algorithms {
		s, err := alg.fn(disks)
		if err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
		checkEnvelope(t, disks, s, alg.name)
		sameSet(t, s.Set(), []int{0, 1}, alg.name)
		if s.ArcCount() != 2 {
			t.Errorf("%s: ArcCount = %d, want 2", alg.name, s.ArcCount())
		}
	}
}

func TestConcentricDisksInnerHidden(t *testing.T) {
	disks := []geom.Disk{
		geom.NewDisk(0, 0, 1),
		geom.NewDisk(0, 0, 2), // dominates
		geom.NewDisk(0.1, 0, 1.5),
	}
	for _, alg := range algorithms {
		s, err := alg.fn(disks)
		if err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
		checkEnvelope(t, disks, s, alg.name)
		sameSet(t, s.Set(), []int{1}, alg.name)
	}
}

func TestDuplicateDisks(t *testing.T) {
	d := geom.NewDisk(0.3, 0.2, 1.2)
	disks := []geom.Disk{d, d, d}
	for _, alg := range algorithms {
		s, err := alg.fn(disks)
		if err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
		checkEnvelope(t, disks, s, alg.name)
		if got := s.Set(); len(got) != 1 {
			t.Errorf("%s: duplicate disks must yield a single skyline disk, got %v", alg.name, got)
		}
	}
}

// The hidden-disk configuration of the paper's Figure 3.2: one neighbor's
// disk is covered by the union of the others and must not appear in the
// skyline set.
func TestHiddenDiskExcluded(t *testing.T) {
	// Hub at origin with radius 2. Four neighbors spread around it with
	// generous radii, plus one small-radius neighbor near the hub whose
	// disk the others cover.
	disks := []geom.Disk{
		{C: geom.Pt(0, 0), R: 2},       // 0: the hub's own disk
		{C: geom.Pt(1.2, 0), R: 1.8},   // 1
		{C: geom.Pt(0, 1.2), R: 1.8},   // 2
		{C: geom.Pt(-1.2, 0), R: 1.8},  // 3
		{C: geom.Pt(0, -1.2), R: 1.8},  // 4
		{C: geom.Pt(0.2, 0.2), R: 0.5}, // 5: hidden inside the union
	}
	for _, alg := range algorithms {
		s, err := alg.fn(disks)
		if err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
		checkEnvelope(t, disks, s, alg.name)
		for _, i := range s.Set() {
			if i == 5 {
				t.Errorf("%s: hidden disk 5 must not be in the skyline set (set=%v)",
					alg.name, s.Set())
			}
		}
	}
}

// The paper's §4.1 construction: k unit disks centered evenly on a circle
// of radius 1/2 around the hub, plus a disk at the hub whose radius lies
// between ‖o − p‖ and 3/2. When that disk is inserted it contributes k
// disjoint arcs. The final skyline must still obey the 2n bound and all
// algorithms must agree.
func TestPaperSection41Construction(t *testing.T) {
	for _, k := range []int{3, 4, 5, 8} {
		disks := section41Disks(k)
		var first Skyline
		for _, alg := range algorithms {
			s, err := alg.fn(disks)
			if err != nil {
				t.Fatalf("k=%d %s: %v", k, alg.name, err)
			}
			checkEnvelope(t, disks, s, alg.name)
			if s.ArcCount() > 2*len(disks) {
				t.Errorf("k=%d %s: ArcCount %d exceeds 2n=%d", k, alg.name, s.ArcCount(), 2*len(disks))
			}
			// The central disk must contribute exactly k arcs in the final
			// skyline (its boundary pokes out between each adjacent pair).
			central := 0
			for _, a := range s {
				if a.Disk == k {
					central++
				}
			}
			if s[0].Disk == k && s[len(s)-1].Disk == k {
				central-- // split wrap-around arc
			}
			if central != k {
				t.Errorf("k=%d %s: central disk contributes %d arcs, want %d",
					k, alg.name, central, k)
			}
			if first == nil {
				first = s
			} else {
				sameEnvelope(t, disks, first, s, alg.name)
			}
		}
	}
}

// Tangent circles: two disks touching internally at one boundary point.
func TestInternallyTangentDisks(t *testing.T) {
	disks := []geom.Disk{
		geom.NewDisk(0, 0, 2),
		geom.NewDisk(1, 0, 1), // tangent to disk 0 at (2, 0)
	}
	for _, alg := range algorithms {
		s, err := alg.fn(disks)
		if err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
		checkEnvelope(t, disks, s, alg.name)
		sameSet(t, s.Set(), []int{0}, alg.name)
	}
}

func TestErrorCases(t *testing.T) {
	for _, alg := range algorithms {
		if _, err := alg.fn(nil); err == nil {
			t.Errorf("%s: empty set must fail", alg.name)
		}
		if _, err := alg.fn([]geom.Disk{geom.NewDisk(5, 0, 1)}); err == nil {
			t.Errorf("%s: disk not containing the hub must fail", alg.name)
		}
		if _, err := alg.fn([]geom.Disk{geom.NewDisk(0, 0, -1)}); err == nil {
			t.Errorf("%s: negative radius must fail", alg.name)
		}
		if _, err := alg.fn([]geom.Disk{geom.NewDisk(0, 0, math.NaN())}); err == nil {
			t.Errorf("%s: NaN radius must fail", alg.name)
		}
	}
}

func TestComputeIncrementalOrderValidation(t *testing.T) {
	disks := []geom.Disk{geom.NewDisk(0, 0, 1), geom.NewDisk(0.1, 0, 1)}
	if _, err := ComputeIncrementalOrder(disks, []int{0}); err == nil {
		t.Error("short order must fail")
	}
	if _, err := ComputeIncrementalOrder(disks, []int{0, 0}); err == nil {
		t.Error("repeated index must fail")
	}
	if _, err := ComputeIncrementalOrder(disks, []int{0, 5}); err == nil {
		t.Error("out-of-range index must fail")
	}
}
