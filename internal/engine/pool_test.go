package engine

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/deploy"
	"repro/internal/mobility"
	"repro/internal/obs"
)

func TestRecordLoads(t *testing.T) {
	cases := []struct {
		name      string
		loads     []workerLoad
		imbalance float64
		steals    int
	}{
		{"no loads", nil, 0, 0},
		{"balanced", []workerLoad{{nodes: 20}, {nodes: 20}}, 1, 0},
		{"skewed", []workerLoad{{nodes: 30}, {nodes: 10}}, 1.5, 0},
		{"steals summed", []workerLoad{{nodes: 5, steals: 2}, {nodes: 5}, {nodes: 5, steals: 3}}, 1, 5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var s Stats
			s.recordLoads(c.loads)
			if s.WorkerImbalance != c.imbalance {
				t.Errorf("WorkerImbalance = %g, want %g", s.WorkerImbalance, c.imbalance)
			}
			if s.Steals != c.steals {
				t.Errorf("Steals = %d, want %d", s.Steals, c.steals)
			}
		})
	}
}

// TestWorkerImbalanceHotspot runs a 4-worker Compute and Update over a
// zipf-contended hotspot deployment: every multi-worker pass must report an
// imbalance of at least 1 (max over mean), and the gauge must carry the
// last pass's value.
func TestWorkerImbalanceHotspot(t *testing.T) {
	reg := obs.NewRegistry()
	Instrument(reg, nil)
	defer Instrument(nil, nil)

	const n, degree = 800, 10
	dcfg := deploy.PaperConfig(deploy.Heterogeneous, degree)
	dcfg.Side = math.Sqrt(n * math.Pi * dcfg.ExpectedMinRadiusSq() / degree)
	w, err := mobility.NewHotspotWorkload(mobility.HotspotConfig{
		Deploy:     dcfg,
		Hotspots:   8,
		Contention: 1.2,
		Spread:     0.6,
		MoveFrac:   0.02,
	}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Workers: 4, Cache: true})
	res, err := e.Compute(w.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Stats.WorkerImbalance >= 1) {
		t.Errorf("Compute: WorkerImbalance = %g, want ≥ 1", res.Stats.WorkerImbalance)
	}
	w.Step(1+res.Stats.Nodes/50, rand.New(rand.NewSource(6)))
	res, err = e.Update(w.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Workers < 2 {
		t.Fatalf("Update ran on %d workers, want a multi-worker pass", res.Stats.Workers)
	}
	if !(res.Stats.WorkerImbalance >= 1) {
		t.Errorf("Update: WorkerImbalance = %g, want ≥ 1", res.Stats.WorkerImbalance)
	}
	if got := reg.Gauge(MetricWorkerImbalance).Value(); got != res.Stats.WorkerImbalance {
		t.Errorf("%s = %g, want the last pass's %g", MetricWorkerImbalance, got, res.Stats.WorkerImbalance)
	}
}
