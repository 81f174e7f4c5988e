package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/deploy"
	"repro/internal/geom"
	"repro/internal/mldcsd"
	"repro/internal/mobility"
	"repro/internal/network"
)

// moveFrac is the small-move drift bound, as a fraction of the mover's
// radius, used by every tick and every service move batch.
const moveFrac = 0.02

// spec describes one workload: the deployment regime and, per second of
// run length, how much of each operation kind a run performs. Counts, not
// deadlines, bound every phase, so a run's work (and with it the cache
// growth behind live_heap_mb) is the same on a fast and a slow commit.
type spec struct {
	name string
	// nodes is the deployment size before scaling.
	nodes int
	// newField draws a deployment and its mover process from rng.
	newField func(n int, rng *rand.Rand) (*field, error)
	// freshPasses draws a new deployment for every timed Compute pass;
	// false reuses one fixed deployment (the lattice).
	freshPasses bool
	// passes, ticks and service seconds per second of run length;
	// moverShare is the share of nodes one tick moves.
	passRate, tickRate, moverShare, serviceShare float64
	// writeRate and readRate are the service's open-loop rates (per s).
	writeRate, readRate float64
	// batchMovers is the move count of one service move batch, as a
	// fraction of the nodes; churnEvery makes every n-th batch a join or
	// leave (0: none).
	batchMovers float64
	churnEvery  int
}

// field is a deployment plus the mover process that perturbs it in place.
type field struct {
	nodes []network.Node
	pick  func(rng *rand.Rand) int
}

// move applies k small moves to f.nodes and returns the moved node IDs in
// move order (a node may repeat).
func (f *field) move(k int, rng *rand.Rand) []int {
	out := make([]int, k)
	for i := range out {
		u := f.pick(rng)
		mobility.SmallMoveStep(f.nodes, u, moveFrac, rng)
		out[i] = u
	}
	return out
}

// paperDeploy is the paper's §5.1 configuration at mean degree 10, with
// the region scaled so that it holds about n nodes.
func paperDeploy(model deploy.RadiusModel, n int) deploy.Config {
	cfg := deploy.PaperConfig(model, 10)
	cfg.Side = math.Sqrt(float64(n) * math.Pi * cfg.ExpectedMinRadiusSq() / cfg.MeanDegree)
	return cfg
}

func uniformField(n int, rng *rand.Rand) (*field, error) {
	nodes, err := deploy.Generate(paperDeploy(deploy.Heterogeneous, n), rng)
	if err != nil {
		return nil, err
	}
	return &field{nodes: nodes, pick: func(r *rand.Rand) int { return r.Intn(len(nodes)) }}, nil
}

func hotspotField(n int, rng *rand.Rand) (*field, error) {
	w, err := mobility.NewHotspotWorkload(mobility.HotspotConfig{
		Deploy:     paperDeploy(deploy.Heterogeneous, n),
		Hotspots:   8,
		Contention: 1.2,
		Spread:     0.6,
		MoveFrac:   moveFrac,
	}, rng)
	if err != nil {
		return nil, err
	}
	return &field{nodes: w.Nodes(), pick: w.PickMover}, nil
}

// latticeField ignores rng for placement: a zero-jitter homogeneous grid
// is the same for every seed. Its movers are still drawn from rng.
func latticeField(n int, rng *rand.Rand) (*field, error) {
	cfg := paperDeploy(deploy.Homogeneous, n)
	cfg.SourceAtCenter = false
	nodes, err := deploy.GeneratePerturbedGrid(cfg, 0, rng)
	if err != nil {
		return nil, err
	}
	return &field{nodes: nodes, pick: func(r *rand.Rand) int { return r.Intn(len(nodes)) }}, nil
}

// The rates below are sized on a 2-CPU machine so that the service's open
// loop stays below capacity (no 429s, no growing backlog) and every tail
// has at least ten samples beyond it at a run length of 20 s: ticks ≥ 200
// for tick_ms.p95, writes ≥ 200 for freshness_ms.p95, reads ≥ 1000 for
// query_ms.p99. Pass counts are high enough that the median pass does not
// hang on one deployment.
//
// A membership batch (join or leave) forces a full Compute. Where that
// Compute is quick (uniform and lattice, whose services' caches answer
// most nodes), churnEvery puts a quarter to a third of all batches behind
// one: freshness p50 stays on the move path, and the readers starve behind
// a steady share of engine work. On hotspot-dense a full Compute takes
// ~0.4 s and differs twofold between deployments, so a few Computes would
// decide the service figures; its stream is moves only. On uniform, a join
// or leave every 15th batch spread freshness p50 over 3.0–4.2 ms across
// ten seeds, and moves only, 50 a batch, spread query p99 over 3.7–6.4 ms.
var specs = []spec{
	{
		name:        "uniform-mobility",
		nodes:       10000,
		newField:    uniformField,
		freshPasses: true,
		passRate:    1.2, tickRate: 40, moverShare: 0.01, serviceShare: 0.4,
		writeRate: 100, readRate: 600,
		batchMovers: 0.0005, churnEvery: 20,
	},
	{
		name:        "hotspot-dense",
		nodes:       1000,
		newField:    hotspotField,
		freshPasses: true,
		passRate:    1.4, tickRate: 20, moverShare: 0.01, serviceShare: 0.4,
		writeRate: 50, readRate: 600,
		batchMovers: 0.002, churnEvery: 0,
	},
	{
		name:        "lattice-cache",
		nodes:       20000,
		newField:    latticeField,
		freshPasses: false,
		passRate:    3, tickRate: 20, moverShare: 0.002, serviceShare: 0.4,
		writeRate: 30, readRate: 600,
		batchMovers: 0.0004, churnEvery: 15,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// inputs is everything one run feeds the program, generated from the seed
// before any timer starts.
type inputs struct {
	// passes holds the deployment of each timed Compute pass; with a
	// fixed deployment every entry aliases the same slice.
	passes [][]network.Node
	// Each round runs its own tick stream on its own engine: stream k
	// starts from tickStarts[k], and ticks[k][t] lists its tick t's moves.
	tickStarts [][]network.Node
	ticks      [][][]move
	// svc[k] is round k's service: its own deployment and schedule.
	svc []serviceInputs
}

type move struct {
	id  int
	pos geom.Point
}

// serviceInputs is the service workload: the join batches that set the
// world up, the open-loop schedule, and the world the schedule ends in.
type serviceInputs struct {
	joins [][]byte
	// writes[i] is sent at i/writeRate seconds; reads likewise.
	writes   [][]byte
	reads    []read
	interval struct{ write, read float64 } // seconds between sends
	final    map[int64]nodeXYR
}

type read struct {
	skyline bool // /v1/skyline, else /v1/forwarding
	node    int64
}

type nodeXYR struct{ x, y, r float64 }

// plan turns a spec and a run length into operation counts.
type plan struct {
	nodes, passes, ticks, movers int
	writes, reads                int
	batchMovers, churnEvery      int
}

func (s spec) plan(seconds float64, scale float64) plan {
	n := max(16, int(float64(s.nodes)*scale))
	svc := seconds * s.serviceShare
	return plan{
		nodes:       n,
		passes:      max(rounds, int(math.Ceil(s.passRate*seconds))),
		ticks:       max(20, int(math.Ceil(s.tickRate*seconds))),
		movers:      1 + int(s.moverShare*float64(n)),
		writes:      max(20, int(math.Ceil(s.writeRate*svc))),
		reads:       max(50, int(math.Ceil(s.readRate*svc))),
		batchMovers: max(1, int(math.Round(s.batchMovers*float64(n)))),
		churnEvery:  s.churnEvery,
	}
}

// generate builds a run's inputs. Every phase draws from its own stream
// derived from the seed, so the phases are independent of each other's
// draw counts.
func generate(s spec, p plan, seed int64) (*inputs, error) {
	stream := func(k int64) *rand.Rand { return rand.New(rand.NewSource(seed*1000003 + k)) }
	in := &inputs{}

	rng := stream(1)
	var fixed []network.Node
	for i := 0; i < p.passes; i++ {
		if !s.freshPasses && fixed != nil {
			in.passes = append(in.passes, fixed)
			continue
		}
		f, err := s.newField(p.nodes, rng)
		if err != nil {
			return nil, err
		}
		fixed = f.nodes
		in.passes = append(in.passes, f.nodes)
	}

	rng = stream(2)
	for k := 0; k < rounds; k++ {
		f, err := s.newField(p.nodes, rng)
		if err != nil {
			return nil, err
		}
		in.tickStarts = append(in.tickStarts, append([]network.Node(nil), f.nodes...))
		var stream [][]move
		for t := k * p.ticks / rounds; t < (k+1)*p.ticks/rounds; t++ {
			ids := f.move(p.movers, rng)
			mv := make([]move, len(ids))
			for i, u := range ids {
				mv[i] = move{id: u, pos: f.nodes[u].Pos}
			}
			stream = append(stream, mv)
		}
		in.ticks = append(in.ticks, stream)
	}

	rng = stream(3)
	for k := 0; k < rounds; k++ {
		si, err := generateService(s, p, (k+1)*p.writes/rounds-k*p.writes/rounds, (k+1)*p.reads/rounds-k*p.reads/rounds, rng)
		if err != nil {
			return nil, err
		}
		in.svc = append(in.svc, si)
	}
	return in, nil
}

// generateService draws one service's deployment and its open-loop
// schedule of the given numbers of writes and reads. The last 1% of nodes (at least two) form the churn pool:
// only they join and leave after set-up, and reads and moves never touch
// them, so no operation targets an absent node.
func generateService(s spec, p plan, writes, reads int, rng *rand.Rand) (serviceInputs, error) {
	var si serviceInputs
	f, err := s.newField(p.nodes, rng)
	if err != nil {
		return si, err
	}
	n := len(f.nodes)
	churn := max(2, n/100)
	stable := n - churn
	present := make([]bool, n)
	si.final = make(map[int64]nodeXYR, n)

	var joins []mldcsd.Delta
	for i, nd := range f.nodes {
		joins = append(joins, joinDelta(int64(i), nd))
		present[i] = true
	}
	for len(joins) > 0 {
		k := min(len(joins), 4000)
		si.joins = append(si.joins, mustBody(joins[:k]))
		joins = joins[k:]
	}

	pickStable := func(r *rand.Rand) int {
		for {
			if u := f.pick(r); u < stable {
				return u
			}
		}
	}
	for i := 0; i < writes; i++ {
		var ds []mldcsd.Delta
		if p.churnEvery > 0 && i%p.churnEvery == p.churnEvery/2 {
			u := stable + rng.Intn(churn)
			if present[u] {
				ds = append(ds, mldcsd.Delta{Op: mldcsd.OpLeave, Node: int64(u)})
			} else {
				ds = append(ds, joinDelta(int64(u), f.nodes[u]))
			}
			present[u] = !present[u]
		} else {
			for j := 0; j < p.batchMovers; j++ {
				u := pickStable(rng)
				mobility.SmallMoveStep(f.nodes, u, moveFrac, rng)
				x, y := f.nodes[u].Pos.X, f.nodes[u].Pos.Y
				ds = append(ds, mldcsd.Delta{Op: mldcsd.OpMove, Node: int64(u), X: &x, Y: &y})
			}
		}
		si.writes = append(si.writes, mustBody(ds))
	}

	z, err := mobility.NewZipf(stable, 1.1)
	if err != nil {
		return si, err
	}
	popular := rng.Perm(stable)
	for i := 0; i < reads; i++ {
		si.reads = append(si.reads, read{skyline: i%2 == 1, node: int64(popular[z.Rank(rng)])})
	}
	si.interval.write = 1 / s.writeRate
	si.interval.read = 1 / s.readRate

	for i, nd := range f.nodes {
		if present[i] {
			si.final[int64(i)] = nodeXYR{nd.Pos.X, nd.Pos.Y, nd.Radius}
		}
	}
	return si, nil
}

func joinDelta(id int64, nd network.Node) mldcsd.Delta {
	x, y, r := nd.Pos.X, nd.Pos.Y, nd.Radius
	return mldcsd.Delta{Op: mldcsd.OpJoin, Node: id, X: &x, Y: &y, R: &r}
}

func mustBody(ds []mldcsd.Delta) []byte {
	b, err := json.Marshal(mldcsd.Batch{Deltas: ds})
	if err != nil {
		panic(err) // finite floats and plain structs always marshal
	}
	return b
}
