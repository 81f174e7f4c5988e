package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/skyline"
	"repro/internal/spatial"
)

// replayPasses caps how many passes the traced run replays layer by layer;
// a replay runs every node single-threaded, and three passes already give
// per-node kernel samples in the tens of thousands.
const replayPasses = 3

// engineConfig is what mldcsd runs in production: cache and kinetic
// repair on, one worker per GOMAXPROCS.
func engineConfig() engine.Config { return engine.Config{Cache: true} }

// passOracles computes the sequential oracle of every pass deployment
// before any pass is timed: in parallel, one deployment per CPU, except in
// the traced run, which times them one at a time for sequential.pass_ms.
func (r *run) passOracles() {
	a := &r.eng
	n := len(r.in.passes)
	if !r.spec.freshPasses {
		n = 1 // every pass reuses the one fixed deployment
	}
	a.wants = make([]answer, n)
	a.seqMS = make(samples, n)
	errs := make([]error, n)
	solve := func(i int) {
		t0 := time.Now()
		a.wants[i], errs[i] = oracle(r.in.passes[i])
		a.seqMS[i] = ms(time.Since(t0))
	}
	if r.trace != nil {
		for i := 0; i < n; i++ {
			solve(i)
		}
	} else {
		next := make(chan int, n)
		for i := 0; i < n; i++ {
			next <- i
		}
		close(next)
		var wg sync.WaitGroup
		for w := 0; w < runtime.GOMAXPROCS(0); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					solve(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			r.fail(err)
		}
	}
}

// passRound times Compute on deployments [lo, hi), each on a fresh engine
// so no pass replays a cache an earlier pass filled, and compares every
// result with the deployment's oracle.
func (r *run) passRound(lo, hi int) {
	a := &r.eng
	for i := lo; i < hi; i++ {
		nodes := r.in.passes[i]
		want := a.wants[min(i, len(a.wants)-1)]
		if r.trace != nil {
			// The same pass without spans, for trace.overhead_ratio; the
			// order alternates so neither side always runs warm.
			first := i%2 == 0
			if first {
				a.untracedMS = append(a.untracedMS, r.timedCompute(nodes, nil))
			}
			a.tracedMS = append(a.tracedMS, r.timedCompute(nodes, r.trace))
			if !first {
				a.untracedMS = append(a.untracedMS, r.timedCompute(nodes, nil))
			}
		}
		sp := r.trace.begin("engine.Compute", 0)
		t0 := time.Now()
		res, err := engine.New(engineConfig()).Compute(nodes)
		d := time.Since(t0)
		r.trace.end(sp, map[string]any{"nodes": len(nodes)})
		if err != nil {
			r.op(err, 0)
			continue
		}
		r.op(nil, mismatches(fromResult(res), want))
		if r.spec.freshPasses {
			// Done with this deployment: keep the live heap, which the
			// collector marks during every later timed call, small.
			r.in.passes[i], a.wants[i] = nil, answer{}
		}
		a.rate = append(a.rate, float64(len(nodes))/d.Seconds())
		st := res.Stats
		a.hits += st.CacheHits
		a.probes += st.CacheHits + st.CacheMisses
		r.engineStats(st)
		if r.trace != nil && i < replayPasses {
			r.replay(nodes, res, ms(d), st)
		}
	}
}

// timedCompute is one extra fresh-engine pass for the trace overhead.
func (r *run) timedCompute(nodes []network.Node, t *tracer) float64 {
	sp := t.begin("engine.Compute", 0)
	t0 := time.Now()
	_, err := engine.New(engineConfig()).Compute(nodes)
	d := time.Since(t0)
	t.end(sp, map[string]any{"nodes": len(nodes), "overhead_probe": true})
	r.op(err, 0)
	return ms(d)
}

// tickRound sets up round k's tick engine (engine.New plus the first
// Compute, timed as set-up) and runs its closed-loop Update stream: apply
// one tick's moves (untimed), time Update, repeat. The stream's last
// result is compared with a fresh engine's Compute, and in the last round
// also with the sequential oracle.
func (r *run) tickRound(k int) {
	a := &r.eng
	nodes := append([]network.Node(nil), r.in.tickStarts[k]...)
	t0 := time.Now()
	e := engine.New(engineConfig())
	res, err := e.Compute(nodes)
	a.setupS = append(a.setupS, time.Since(t0).Seconds())
	r.op(err, 0)
	if err != nil {
		return
	}
	a.tickEngine = e
	for t, mv := range r.in.ticks[k] {
		for _, m := range mv {
			nodes[m.id].Pos = m.pos
		}
		sp := r.trace.begin("engine.Update", 0)
		t0 := time.Now()
		res, err = e.Update(nodes)
		d := time.Since(t0)
		r.trace.end(sp, map[string]any{"round": k, "tick": t, "moves": len(mv)})
		r.op(err, 0)
		if err != nil {
			return
		}
		a.tickMS = append(a.tickMS, ms(d))
		st := res.Stats
		a.dirty += int64(st.Dirty)
		a.repaired += int64(st.Repaired)
		a.repairFB += int64(st.RepairFallbacks)
		r.engineStats(st)
	}
	fresh, err := engine.New(engineConfig()).Compute(nodes)
	if err != nil {
		r.fail(err)
		return
	}
	r.op(nil, mismatches(fromResult(res), fromResult(fresh)))
	if k == rounds-1 {
		want, err := oracle(nodes)
		if err != nil {
			r.fail(err)
			return
		}
		r.op(nil, mismatches(fromResult(res), want))
	}
}

// engineSummary reports the pass and tick figures; the cache and snapshot
// figures come from the last round's tick engine.
func (r *run) engineSummary() {
	a := &r.eng
	e := a.tickEngine
	n := len(a.tickMS)
	r.e2e.add("compute_nodes_per_s", "nodes/s", a.rate.quantile(0.5), len(a.rate))
	r.e2e.quantiles("tick_ms", "ms", a.tickMS, 0.5)
	l := r.layer
	l.quantiles("tick_ms", "ms", a.tickMS, 0.95)
	l.add("sequential.pass_ms", "ms", a.seqMS.quantile(0.5), len(a.seqMS))
	l.add("engine.cache_hit_ratio", "ratio", ratio(float64(a.hits), float64(a.probes)), int(a.probes))
	if r.trace != nil {
		l.add("trace.overhead_ratio", "ratio", a.tracedMS.quantile(0.5)/a.untracedMS.quantile(0.5), len(a.tracedMS))
	}
	l.add("engine.repair_ratio", "ratio", ratio(float64(a.repaired), float64(a.dirty)), int(a.dirty))
	l.add("engine.repair_fallbacks", "count", float64(a.repairFB), n)
	l.add("engine.dirty_per_tick", "nodes", ratio(float64(a.dirty), float64(n)), n)
	l.add("engine.cache_entries", "count", float64(e.CacheLen()), 1)

	// engine.snapshot_us: Result() copies the per-node top-level slices,
	// so it is O(N) however little a tick changed.
	var snap samples
	for i := 0; i < 50; i++ {
		sp := r.trace.begin("engine.Result", 0)
		t0 := time.Now()
		_ = e.Result()
		snap = append(snap, us(time.Since(t0)))
		r.trace.end(sp, nil)
	}
	l.add("engine.snapshot_us", "us", snap.quantile(0.5), len(snap))
}

// replay re-runs the layers below engine.Compute on one pass's deployment
// through their public functions, to split the pass's time by layer: the
// grid build, the neighbour gather, the skyline kernel on local sets
// rebuilt from Result.Neighbors, and the invariant check. Each stage is one
// span; per-node times are kept as samples.
func (r *run) replay(nodes []network.Node, res *engine.Result, passMS float64, st engine.Stats) {
	t := r.trace
	root := t.begin("replay", 0)
	pts := make([]geom.Point, len(nodes))
	maxR := 0.0
	for i, nd := range nodes {
		pts[i] = nd.Pos
		maxR = math.Max(maxR, nd.Radius)
	}

	sp := t.begin("spatial.NewGrid", root)
	t0 := time.Now()
	grid := spatial.NewGrid(pts, maxR)
	buildMS := ms(time.Since(t0))
	t.end(sp, nil)

	links := 0
	sp = t.begin("spatial.VisitWithin", root)
	t0 = time.Now()
	for u, hub := range nodes {
		grid.VisitWithin(hub.Pos, hub.Radius, func(v int) {
			if v != u && geom.Reaches(nodes[v].Pos, hub.Pos, nodes[v].Radius) {
				links++
			}
		})
	}
	gatherMS := ms(time.Since(t0))
	t.end(sp, map[string]any{"links": links})

	sets := make([][]geom.Disk, len(nodes))
	for u, hub := range nodes {
		ds := make([]geom.Disk, 0, len(res.Neighbors[u])+1)
		ds = append(ds, geom.Disk{R: hub.Radius})
		for _, v := range res.Neighbors[u] {
			ds = append(ds, nodes[v].Disk().Translate(hub.Pos))
		}
		sets[u] = ds
	}
	var sc skyline.Scratch
	var sl skyline.Skyline
	var set []int
	sky := make([]skyline.Skyline, len(nodes))
	var disks, arcs, cover int
	sp = t.begin("skyline.ComputeIntoUnchecked", root)
	for u, ds := range sets {
		t0 = time.Now()
		sl = sc.ComputeIntoUnchecked(sl, ds)
		r.kernelUS = append(r.kernelUS, us(time.Since(t0)))
		sky[u] = sl.Clone()
		set = sl.AppendSet(set)
		disks += len(ds)
		arcs += sl.ArcCount()
		cover += len(set)
	}
	t.end(sp, nil)
	kernelMS := r.kernelUS[len(r.kernelUS)-len(sets):].sum() / 1000

	sp = t.begin("skyline.CheckInvariants", root)
	var checkUS samples
	for u, s := range sky {
		t0 = time.Now()
		err := s.CheckInvariants(len(sets[u]))
		checkUS = append(checkUS, us(time.Since(t0)))
		if err != nil {
			r.invariantFailures++
		}
	}
	t.end(sp, nil)
	r.checkUS = append(r.checkUS, checkUS...)
	t.end(root, nil)

	// The engine skips the kernel and the check for nodes the cache
	// answers, and spreads the rest over its workers; the replay is one
	// thread over every node, so scale it by the miss share and divide by
	// the worker count before setting it against the pass's wall time.
	workers := float64(max(st.Workers, 1))
	miss := 1 - float64(st.CacheHits)/float64(max(len(nodes), 1))
	below := buildMS + (gatherMS+miss*(kernelMS+checkUS.sum()/1000))/workers
	r.buildMS = append(r.buildMS, buildMS)
	r.gatherMS = append(r.gatherMS, gatherMS)
	r.selfMS = append(r.selfMS, passMS-below)
	r.share = append(r.share, miss*kernelMS/(passMS*workers))
	r.links += int64(links)
	r.candidates += int64(windowCandidates(grid, nodes, maxR))
	r.disks += int64(disks)
	r.arcs += int64(arcs)
	r.cover += int64(cover)
	r.sets += int64(len(sets))
}

// windowCandidates counts the points in every hub's scanned cell window:
// the cells VisitWithin walks for a query of the hub's radius (grown by
// geom.Eps), each of whose points it distance-tests.
func windowCandidates(g *spatial.Grid, nodes []network.Node, cell float64) int {
	type key struct{ x, y int }
	count := map[key]int{}
	for _, members := range g.Cells() {
		x, y := g.CellCoord(members[0])
		count[key{x, y}] = len(members)
	}
	total := 0
	for _, hub := range nodes {
		reach := hub.Radius + geom.Eps
		x0, x1 := int(math.Floor((hub.Pos.X-reach)/cell)), int(math.Floor((hub.Pos.X+reach)/cell))
		y0, y1 := int(math.Floor((hub.Pos.Y-reach)/cell)), int(math.Floor((hub.Pos.Y+reach)/cell))
		for x := x0; x <= x1; x++ {
			for y := y0; y <= y1; y++ {
				total += count[key{x, y}]
			}
		}
	}
	return total
}

// engineStats books the pool and fallback counters of one timed Compute
// pass or Update tick.
func (r *run) engineStats(st engine.Stats) {
	r.imbalance = append(r.imbalance, st.WorkerImbalance)
	r.steals += int64(st.Steals)
	r.fallbacks += int64(st.Fallbacks)
}

// layerSummary turns the replay accumulators into per-layer metrics.
func (r *run) layerSummary() {
	l := r.layer
	l.add("spatial.build_ms", "ms", r.buildMS.quantile(0.5), len(r.buildMS))
	l.add("spatial.gather_ms", "ms", r.gatherMS.quantile(0.5), len(r.gatherMS))
	l.add("spatial.link_ratio", "ratio", ratio(float64(r.links), float64(r.candidates)), int(r.candidates))
	l.quantiles("skyline.compute_us", "us", r.kernelUS, 0.5, 0.99)
	l.add("skyline.disks_per_set.mean", "disks", ratio(float64(r.disks), float64(r.sets)), int(r.sets))
	l.add("skyline.arcs_per_set.mean", "arcs", ratio(float64(r.arcs), float64(r.sets)), int(r.sets))
	l.add("skyline.cover_ratio", "ratio", ratio(float64(r.cover), float64(r.disks)), int(r.sets))
	l.quantiles("skyline.check_us", "us", r.checkUS, 0.5)
	l.add("skyline.share", "ratio", r.share.quantile(0.5), len(r.share))
	l.add("engine.self_ms", "ms", r.selfMS.quantile(0.5), len(r.selfMS))
	l.add("engine.fallbacks", "count", float64(r.fallbacks), len(r.imbalance))
	l.add("engine.worker_imbalance", "ratio", r.imbalance.mean(), len(r.imbalance))
	l.add("engine.steals", "count", float64(r.steals)/float64(max(len(r.imbalance), 1)), len(r.imbalance))
	if r.invariantFailures > 0 {
		r.fail(fmt.Errorf("replay: %d skylines failed CheckInvariants", r.invariantFailures))
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// liveHeapMiB is HeapAlloc after a full collection.
func liveHeapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
