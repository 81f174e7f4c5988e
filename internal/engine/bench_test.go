package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/deploy"
	"repro/internal/mldcs"
	"repro/internal/mobility"
	"repro/internal/network"
)

// benchDeployment builds a heterogeneous deployment of ≈ n nodes at the
// paper's density (mean degree 10) by scaling the region.
func benchDeployment(n int, seed int64) ([]network.Node, float64, error) {
	const degree = 10
	cfg := deploy.PaperConfig(deploy.Heterogeneous, degree)
	cfg.Side = math.Sqrt(float64(n) * math.Pi * cfg.ExpectedMinRadiusSq() / degree)
	nodes, err := deploy.Generate(cfg, rand.New(rand.NewSource(seed)))
	return nodes, cfg.Side, err
}

// benchSequential is the per-node baseline the engine is measured against.
func benchSequential(nodes []network.Node) error {
	g, err := network.Build(nodes, network.Bidirectional)
	if err != nil {
		return err
	}
	for u := 0; u < g.Len(); u++ {
		ls, _, err := g.LocalSet(u)
		if err != nil {
			return err
		}
		if _, err := mldcs.Solve(ls); err != nil {
			return err
		}
	}
	return nil
}

func BenchmarkSequential(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			nodes, _, err := benchDeployment(n, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := benchSequential(nodes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEngine(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		for _, cache := range []bool{false, true} {
			b.Run(fmt.Sprintf("n=%d/cache=%v", n, cache), func(b *testing.B) {
				nodes, _, err := benchDeployment(n, 1)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := New(Config{Cache: cache}).Compute(nodes); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkEngineUpdate measures the incremental path: one random-waypoint
// step dirties a subset of the network, and Update recomputes only that.
func BenchmarkEngineUpdate(b *testing.B) {
	const n = 10000
	nodes, side, err := benchDeployment(n, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	model, err := mobility.NewModel(mobility.WaypointConfig{
		Side: side, SpeedMin: 0.5, SpeedMax: 1.5, PauseMax: 5,
	}, nodes, rng)
	if err != nil {
		b.Fatal(err)
	}
	e := New(Config{})
	if _, err := e.Compute(nodes); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Step(0.05)
		if _, err := e.Update(model.Nodes()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineUpdateKinetic measures one pure-mobility tick (≈1% of
// nodes drift by ≤2% of their own radius). Its repair=true sub-benchmark
// runs the kinetic repair path; repair=false sets DisableRepair, so every
// dirty node recomputes from scratch — the baseline repair is measured
// against.
func BenchmarkEngineUpdateKinetic(b *testing.B) {
	const n = 20000
	nodes, _, err := benchDeployment(n, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, disable := range []bool{false, true} {
		b.Run(fmt.Sprintf("repair=%v", !disable), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			cur := append([]network.Node(nil), nodes...)
			e := New(Config{Workers: 1, DisableRepair: disable})
			if _, err := e.Compute(cur); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				smallMoveStep(rng, cur, 1+n/100, 0.02)
				if _, err := e.Update(cur); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineUpdateHotspot measures one tick of the hotspot regime:
// 1k nodes in 8 zipf-weighted clusters (contention 1.2, spread 0.6), 10
// movers a tick drawn by HotspotWorkload.Step. Local sets hold ~185 disks
// and a tick dirties ~700 nodes, nearly all repaired in place, so per-node
// costs that grow with the neighborhood (O(k log k) and worse) show here
// where BenchmarkEngineUpdateKinetic's ~11-disk sets hide them.
func BenchmarkEngineUpdateHotspot(b *testing.B) {
	w := hotspotWorkload(b, 1000, 1)
	rng := rand.New(rand.NewSource(2))
	e := New(Config{})
	if _, err := e.Compute(w.Nodes()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Step(10, rng)
		if _, err := e.Update(w.Nodes()); err != nil {
			b.Fatal(err)
		}
	}
}
