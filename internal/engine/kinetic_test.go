package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/deploy"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/network"
)

// smallMoveStep displaces count random nodes of cur in place by at most
// frac of their own radius — the pure-mobility regime the repair path is
// built for (no node teleports across its whole neighborhood).
func smallMoveStep(rng *rand.Rand, cur []network.Node, count int, frac float64) {
	for i := 0; i < count; i++ {
		u := rng.Intn(len(cur))
		step := frac * cur[u].Radius
		cur[u].Pos.X += (rng.Float64()*2 - 1) * step
		cur[u].Pos.Y += (rng.Float64()*2 - 1) * step
	}
}

// hotspotWorkload is the dense regime of perfbench's hotspot-dense
// workload: about n nodes at the paper's density, placed in 8
// zipf-weighted clusters (contention 1.2, spread 0.6), with movers drawn
// from the same skew. Local sets hold ~90 disks at n = 500 and ~185 at
// n = 1000, against ~11 for benchDeployment.
func hotspotWorkload(tb testing.TB, n int, seed int64) *mobility.HotspotWorkload {
	tb.Helper()
	dcfg := deploy.PaperConfig(deploy.Heterogeneous, 10)
	dcfg.Side = math.Sqrt(float64(n) * math.Pi * dcfg.ExpectedMinRadiusSq() / dcfg.MeanDegree)
	w, err := mobility.NewHotspotWorkload(mobility.HotspotConfig{
		Deploy:     dcfg,
		Hotspots:   8,
		Contention: 1.2,
		Spread:     0.6,
		MoveFrac:   0.02,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

// requireSameResult asserts Update's snapshot is element-identical to a
// from-scratch Compute of the same node slice.
func requireSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	for u := range got.Forwarding {
		if !equalSets(got.Neighbors[u], want.Neighbors[u]) {
			t.Fatalf("%s: node %d neighbors = %v, want %v", label, u, got.Neighbors[u], want.Neighbors[u])
		}
		if !equalSets(got.Forwarding[u], want.Forwarding[u]) {
			t.Fatalf("%s: node %d forwarding = %v, want %v", label, u, got.Forwarding[u], want.Forwarding[u])
		}
		if got.HubInCover[u] != want.HubInCover[u] {
			t.Fatalf("%s: node %d hubInCover = %v, want %v", label, u, got.HubInCover[u], want.HubInCover[u])
		}
	}
}

// TestEngineUpdateRepairMatchesFresh is the end-to-end differential for the
// kinetic repair path: small random subsets of nodes drift a little each
// tick, so most dirty nodes are repair candidates (they did not move, one
// neighbor did). Every tick must match a from-scratch Compute exactly, and
// the repair path must actually fire — a silent
// everything-fell-back-to-recompute regression fails the Repaired check.
func TestEngineUpdateRepairMatchesFresh(t *testing.T) {
	uniform, _, err := benchDeployment(400, 13)
	if err != nil {
		t.Fatal(err)
	}
	// The hotspot deployment's ~90-disk local sets reach what the ~11-disk
	// uniform sets do not: long arc lists, many candidates per freed span,
	// and movers that touch several arcs at once.
	deployments := []struct {
		name  string
		nodes []network.Node
	}{
		{"uniform", uniform},
		{"hotspot", hotspotWorkload(t, 500, 13).Nodes()},
	}
	for _, dep := range deployments {
		for _, ecfg := range engineVariants() {
			rng := rand.New(rand.NewSource(77))
			e := New(ecfg)
			if _, err := e.Compute(dep.nodes); err != nil {
				t.Fatal(err)
			}
			cur := append([]network.Node(nil), dep.nodes...)
			totalRepaired := 0
			for step := 1; step <= 6; step++ {
				smallMoveStep(rng, cur, 1+len(cur)/100, 0.02)
				got, err := e.Update(cur)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				want, err := New(ecfg).Compute(cur)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				label := fmt.Sprintf("%s step %d workers=%d cache=%v", dep.name, step, ecfg.Workers, ecfg.Cache)
				requireSameResult(t, label, got, want)
				if got.Stats.Repaired+got.Stats.Recomputed != got.Stats.Dirty {
					t.Fatalf("%s: repaired %d + recomputed %d != dirty %d",
						label, got.Stats.Repaired, got.Stats.Recomputed, got.Stats.Dirty)
				}
				if got.Stats.RepairFallbacks > got.Stats.Recomputed {
					t.Fatalf("%s: repair fallbacks %d exceed recomputes %d",
						label, got.Stats.RepairFallbacks, got.Stats.Recomputed)
				}
				totalRepaired += got.Stats.Repaired
			}
			if !ecfg.Cache && totalRepaired == 0 {
				t.Errorf("%s workers=%d cache=%v: repair path never fired under small-move mobility",
					dep.name, ecfg.Workers, ecfg.Cache)
			}
		}
	}
}

// TestKineticIdsMatchNeighbors pins the invariant updateNode's diff rests
// on: whenever a node's kinetic state is valid, its neighbor IDs, sorted,
// are exactly the node's published neighbor list. The diff searches that
// list instead of sorting a copy of the IDs, so a path that edits one
// without the other would make later repairs diff against the wrong set.
// Checked after a Compute and after each of 30 hotspot ticks, for one and
// four workers, with the cache on and off.
func TestKineticIdsMatchNeighbors(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, cache := range []bool{false, true} {
			label := fmt.Sprintf("workers=%d cache=%v", workers, cache)
			w := hotspotWorkload(t, 500, 21)
			rng := rand.New(rand.NewSource(22))
			e := New(Config{Workers: workers, Cache: cache})
			if _, err := e.Compute(w.Nodes()); err != nil {
				t.Fatal(err)
			}
			checked, repaired := 0, 0
			var ids []int
			for pass := 0; pass <= 30; pass++ {
				if pass > 0 {
					w.Step(5, rng)
					res, err := e.Update(w.Nodes())
					if err != nil {
						t.Fatalf("%s pass %d: %v", label, pass, err)
					}
					repaired += res.Stats.Repaired
				}
				for u := range e.kin {
					if !e.kin[u].valid {
						continue
					}
					ids = append(ids[:0], e.kin[u].ids...)
					slices.Sort(ids)
					if !slices.Equal(ids, e.nbrs[u]) {
						t.Fatalf("%s pass %d: node %d kinetic ids (sorted) = %v, neighbors = %v",
							label, pass, u, ids, e.nbrs[u])
					}
					checked++
				}
			}
			if checked == 0 || repaired == 0 {
				t.Fatalf("%s: checked %d valid states over %d repairs; the invariant was never exercised",
					label, checked, repaired)
			}
		}
	}
}

// TestEngineUpdateDisableRepair: the escape hatch must recompute every
// dirty node and still agree with a fresh Compute.
func TestEngineUpdateDisableRepair(t *testing.T) {
	nodes, _, err := benchDeployment(200, 17)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(78))
	e := New(Config{Workers: 4, DisableRepair: true})
	if _, err := e.Compute(nodes); err != nil {
		t.Fatal(err)
	}
	cur := append([]network.Node(nil), nodes...)
	for step := 1; step <= 3; step++ {
		smallMoveStep(rng, cur, 3, 0.02)
		got, err := e.Update(cur)
		if err != nil {
			t.Fatal(err)
		}
		want, err := New(Config{Workers: 4}).Compute(cur)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, fmt.Sprintf("disable-repair step %d", step), got, want)
		if got.Stats.Repaired != 0 {
			t.Fatalf("step %d: DisableRepair engine repaired %d nodes", step, got.Stats.Repaired)
		}
		if got.Stats.Recomputed != got.Stats.Dirty {
			t.Fatalf("step %d: recomputed %d != dirty %d", step, got.Stats.Recomputed, got.Stats.Dirty)
		}
	}
}

// TestEngineUpdateAsymmetricRadiiSlide is the satellite regression for the
// old-neighbor dirty marking audit: a large-radius node slides away from
// (and back toward) a small-radius node. The link is bidirectional, so it
// lives and dies by the *small* node's reach; when the big node moves, the
// small node's grid query still sees it (it is far inside the big node's
// radius) but the reverse-reach flips. Every transition must leave Update
// element-identical to a fresh Compute — a dirty-marking bug that consults
// only one side of the asymmetric link diverges here.
func TestEngineUpdateAsymmetricRadiiSlide(t *testing.T) {
	base := []network.Node{
		{ID: 0, Pos: geom.Pt(0, 0), Radius: 10},
		{ID: 1, Pos: geom.Pt(0.9, 0), Radius: 1},
		{ID: 2, Pos: geom.Pt(0, 0.8), Radius: 1.2},
		{ID: 3, Pos: geom.Pt(6, 6), Radius: 2},
		{ID: 4, Pos: geom.Pt(6.5, 6.2), Radius: 1.5},
	}
	// The big node slides right in small steps: past x=0.1 the 0↔1 link
	// dies (node 1 can no longer reach back), later it returns. Node 1
	// never moves, so its forwarding set only stays correct if the marking
	// logic dirties it from node 0's movement — in both directions.
	slides := []float64{0, 0.05, 0.15, 0.3, 1.2, 0.3, 0.05, 0}
	for _, ecfg := range engineVariants() {
		e := New(ecfg)
		cur := append([]network.Node(nil), base...)
		if _, err := e.Compute(cur); err != nil {
			t.Fatal(err)
		}
		for step, dx := range slides {
			cur[0].Pos = geom.Pt(dx, 0)
			got, err := e.Update(cur)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			want, err := New(ecfg).Compute(cur)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			label := fmt.Sprintf("slide step %d dx=%g workers=%d cache=%v", step, dx, ecfg.Workers, ecfg.Cache)
			requireSameResult(t, label, got, want)
		}
		// Mirror image: the small node slides out of its own reach while
		// the big node stands still.
		for step, dx := range []float64{0.9, 0.99, 1.05, 2.5, 1.05, 0.9} {
			cur[1].Pos = geom.Pt(dx, 0)
			got, err := e.Update(cur)
			if err != nil {
				t.Fatalf("small-slide step %d: %v", step, err)
			}
			want, err := New(ecfg).Compute(cur)
			if err != nil {
				t.Fatalf("small-slide step %d: %v", step, err)
			}
			label := fmt.Sprintf("small-slide step %d dx=%g workers=%d cache=%v", step, dx, ecfg.Workers, ecfg.Cache)
			requireSameResult(t, label, got, want)
		}
	}
}

// Steady-state repair — warm kinetic state, warm worker scratch, a
// neighbor nudged between ticks — must not allocate: the whole point of
// the surgery is patching cached state in place.
func TestUpdateNodeRepairSteadyStateAllocs(t *testing.T) {
	nodes, _, err := benchDeployment(300, 7)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Workers: 1})
	if _, err := e.Compute(nodes); err != nil {
		t.Fatal(err)
	}
	// Pick a node with neighbors and one of its neighbors to wiggle.
	hub := -1
	for u := range nodes {
		if len(e.nbrs[u]) >= 3 {
			hub = u
			break
		}
	}
	if hub < 0 {
		t.Fatal("no node with enough neighbors")
	}
	mover := e.nbrs[hub][0]
	movedMark := make([]bool, len(nodes))
	movedMark[mover] = true
	e.updCand = make([][]int, len(nodes))
	sc := &scratch{}
	wiggle := func() {
		e.nodes[mover].Pos.X += 1e-9 // tiny slide: always a repairable diff
		e.updCand[hub] = append(e.updCand[hub][:0], mover)
		if err := e.updateNode(hub, sc, movedMark); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		wiggle() // warm-up: grow kin + scratch buffers
	}
	before := e.repaired.Load()
	allocs := testing.AllocsPerRun(10, wiggle)
	if e.repaired.Load() == before {
		t.Fatal("warm repair fell back to recompute; alloc measurement is not exercising the repair path")
	}
	if allocs != 0 {
		t.Errorf("steady-state repair allocated %.1f objects/run, want 0", allocs)
	}
}
