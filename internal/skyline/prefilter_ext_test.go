package skyline_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/deploy"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/network"
	"repro/internal/skyline"
)

// localSets returns the hub-frame local disk set of every node, the input
// the engine hands the skyline kernel.
func localSets(t *testing.T, nodes []network.Node) [][]geom.Disk {
	t.Helper()
	g, err := network.Build(nodes, network.Bidirectional)
	if err != nil {
		t.Fatal(err)
	}
	sets := make([][]geom.Disk, g.Len())
	for u := range sets {
		ls, _, err := g.LocalSet(u)
		if err != nil {
			t.Fatal(err)
		}
		sets[u] = ls.All()
	}
	return sets
}

// requireSetsIdentical requires the filtered compute to equal the
// unfiltered oracle, element for element, on every set, and reports the
// mean set size and skyline-set size.
func requireSetsIdentical(t *testing.T, label string, sets [][]geom.Disk) {
	t.Helper()
	disks, kept := 0, 0
	for u, ds := range sets {
		if d := skyline.FilterDiff(ds); d != "" {
			t.Fatalf("%s node %d (n=%d): %s", label, u, len(ds), d)
		}
		sl, err := skyline.Compute(ds)
		if err != nil {
			t.Fatal(err)
		}
		disks += len(ds)
		kept += len(sl.AppendSet(nil))
	}
	t.Logf("%s: %d sets, mean %.1f disks, %.1f on the skyline", label, len(sets),
		float64(disks)/float64(len(sets)), float64(kept)/float64(len(sets)))
}

// The local sets of a zipf hotspot deployment (perfbench's hotspot-dense
// regime: ~175 disks a set, ~11 on the skyline) and of a zero-jitter
// homogeneous lattice, where symmetry lines up crossing angles, must come
// out of the filtered compute exactly as out of the unfiltered D&C.
func TestPrefilterBitIdenticalDeployments(t *testing.T) {
	const n = 1000
	cfg := deploy.PaperConfig(deploy.Heterogeneous, 10)
	cfg.Side = math.Sqrt(n * math.Pi * cfg.ExpectedMinRadiusSq() / cfg.MeanDegree)
	for seed := int64(1); seed <= 2; seed++ {
		w, err := mobility.NewHotspotWorkload(mobility.HotspotConfig{
			Deploy:     cfg,
			Hotspots:   8,
			Contention: 1.2,
			Spread:     0.6,
			MoveFrac:   0.05,
		}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		requireSetsIdentical(t, "hotspot", localSets(t, w.Nodes()))
	}

	grid := deploy.PaperConfig(deploy.Homogeneous, 10)
	grid.SourceAtCenter = false
	for _, side := range []float64{6, 12.5} {
		grid.Side = side
		nodes, err := deploy.GeneratePerturbedGrid(grid, 0, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		requireSetsIdentical(t, "lattice", localSets(t, nodes))
	}
}
