// Package engine computes MLDCS forwarding sets for an entire network in
// one batched pass. The paper solves the problem one hub at a time
// (Theorem 3: the MLDCS is the skyline set, O(n log n) per node); this
// package is the whole-network counterpart that a production deployment
// needs: neighbor discovery through a shared spatial grid, a worker pool
// sharded over grid cells with per-worker scratch buffers, a skyline cache
// keyed by a canonical neighborhood fingerprint so bit-identical local
// sets are solved once, and an incremental recompute path that only redoes
// the neighborhoods a movement step actually dirtied.
//
// The engine is observationally equivalent to the sequential per-node
// loop (network.Build + Graph.LocalSet + mldcs.Solve for every node): the
// differential test harness in this package asserts element-identical
// forwarding sets across worker counts and cache settings, against both
// the per-node solver and the naive skyline oracle.
package engine

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/skyline"
	"repro/internal/spatial"
)

// Config parameterizes an Engine.
type Config struct {
	// Workers is the number of concurrent shard workers; ≤ 0 selects
	// GOMAXPROCS.
	Workers int
	// Cache enables the skyline cache: local sets with bit-identical
	// canonical fingerprints (see cache.go) are solved once and replayed.
	// Structured deployments (grids, co-located clusters, replayed traces)
	// hit constantly; uniform random deployments almost never do, and pay
	// only the fingerprint cost.
	Cache bool
	// CellSize overrides the spatial grid's cell size; ≤ 0 selects the
	// maximum transmission radius, which bounds every neighbor query to a
	// 3×3 cell window.
	CellSize float64
	// DisableRepair turns off the kinetic repair fast path: every dirty
	// node in Update recomputes its skyline from scratch, as the engine
	// did before repair existed. For benchmarking (the no-repair case of
	// BenchmarkEngineUpdateKinetic measures repair against exactly this
	// baseline) and for bisecting a suspected repair bug in production.
	DisableRepair bool
}

// Stats summarizes one Compute or Update pass.
type Stats struct {
	Nodes   int // nodes in the network
	Edges   int // directed neighbor entries (sum of out-degrees)
	Cells   int // occupied grid cells (the shard count)
	Workers int // workers actually used
	// Cache accounting for this pass (zero when the cache is disabled).
	CacheHits   int64
	CacheMisses int64
	// Update-only accounting: nodes whose state changed, and neighborhoods
	// recomputed (moved nodes plus their old and new neighbors). A full
	// Compute reports Dirty == Nodes.
	Moved int
	Dirty int
	// Fallbacks counts the nodes in this pass whose computed skyline
	// failed the runtime invariant check (skyline.CheckInvariants) and
	// were given the always-correct full local set instead — a degenerate
	// input degrades to a bigger forwarding set, never a wrong one.
	Fallbacks int
	// Kinetic accounting, Update-only (zero on a full Compute). Every
	// dirty node is either Repaired (its cached skyline was patched in
	// place by arc surgery) or Recomputed (full skyline recompute: the
	// node itself moved, its kinetic state was invalid, the neighborhood
	// diff was too large, or a repair was abandoned). RepairFallbacks
	// counts the abandoned repairs — an envelope tie or a tripped
	// invariant mid-surgery — which recompute and are also in Recomputed.
	// Distinct from Fallbacks: a repair fallback falls back to the normal
	// full compute, not to the degenerate full-local-set answer.
	Repaired        int
	Recomputed      int
	RepairFallbacks int
	// Per-worker load accounting for the pass's parallel section (see
	// pool.go): the imbalance ratio of the heaviest to the mean per-worker
	// node count (1.0 = perfectly balanced, higher = skew; 0 when the pass
	// ran no work), and the number of chunks obtained by work-stealing.
	// Exported as the engine_worker_imbalance gauge and the steals
	// counter, and read by perfbench to diagnose contended (hotspot)
	// workloads.
	WorkerImbalance float64
	Steals          int
}

// Result is a snapshot of the engine's per-node output. The top-level
// slices are fresh per snapshot; the per-node sub-slices are shared with
// the engine (and with later snapshots for nodes that did not change) and
// must not be modified.
//
// A Result is immutable once returned, so it may be published (e.g.
// through an atomic.Pointer) and read concurrently while the engine keeps
// computing — this is the epoch-snapshot read path mldcsd serves queries
// from. Later passes replace per-node sub-slices, never write through
// them, so an old snapshot stays internally consistent forever.
//
//mldcs:immutable
type Result struct {
	// Epoch numbers the pass that produced this snapshot: 1 for the first
	// successful Compute, incremented by every later Compute or Update.
	// Two snapshots with the same Epoch are identical; a reader holding a
	// sequence of snapshots can assert monotonicity.
	Epoch uint64
	// Forwarding[u] holds the sorted IDs of u's forwarding set: the
	// neighbors whose disks contribute arcs to u's skyline (the paper's
	// relay set, mldcs.Result.NeighborCover mapped to node IDs).
	Forwarding [][]int
	// HubInCover[u] reports whether u's own disk is part of its minimum
	// local disk cover set (mldcs.Result.ContainsHub).
	HubInCover []bool
	// Neighbors[u] holds u's sorted bidirectional 1-hop neighbor IDs,
	// exactly as network.Build would report them.
	Neighbors [][]int
	// Stats describes the pass that produced this snapshot.
	Stats Stats
}

// Engine computes and maintains forwarding sets for a whole network. An
// Engine is not safe for concurrent use; it parallelizes internally.
type Engine struct {
	cfg   Config
	nodes []network.Node
	grid  *spatial.Grid
	fwd   [][]int
	hubIn []bool
	nbrs  [][]int
	cache *skyCache
	stats Stats
	// epoch counts successful Compute/Update passes; snapshot stamps it
	// into Result.Epoch.
	epoch uint64
	// fallbacks counts degeneracy fallbacks within the current pass;
	// atomic because computeNode runs on the worker pool.
	fallbacks atomic.Int64
	// Kinetic per-pass counters, same worker-pool atomicity story.
	repaired   atomic.Int64
	recomputed atomic.Int64
	repairFB   atomic.Int64
	// kin holds each node's kinetic state — the hub-frame disk list and
	// skyline the last full compute produced — which Update's repair path
	// patches in place instead of recomputing. Entry u is only ever
	// touched by the worker that owns node u in the current pass.
	kin []kinState
	// Update's diff buffers, reused across calls so a steady mobility loop
	// does not re-allocate the moved/dirty bookkeeping every step.
	updMoved     []int
	updDirty     []bool
	updList      []int
	updMovedMark []bool
	// updCand[v] lists the moved nodes that may have changed v's link set
	// this pass (possibly with duplicates): filled alongside the dirty
	// marking, consumed by updateNode's repair gather — which therefore
	// never needs a grid query — and reset entry-wise after the pass.
	updCand [][]int
	// Parallel-driver state (pool.go): persistent per-worker scratches,
	// the reusable claim queues, the last pass's per-worker load books,
	// Compute's flattened work items, and Update's cell-batch buffers.
	scratches  []*scratch
	queues     []taskQueue
	lastLoads  []workerLoad
	items      []cellSpan
	updEnts    []updEnt
	updEntsTmp []updEnt
	updSpans   []updSpan
	// The update pass closure and its error collector persist on the
	// engine (runUpdatePass): a per-call closure would escape through the
	// worker goroutines and cost a heap allocation every tick.
	updPassFn   func(i int, sc *scratch)
	updPassMark []bool
	updPassErr  runErr
}

// kinState is one node's cached kinetic state: the neighbor IDs parallel
// to disks[1:] (disks[0] is the hub's own disk), and the skyline over
// disks. The ID order starts canonical (the compute's tuple order) and is
// scrambled by swap-compaction as neighbors depart; only the parallel
// correspondence matters. valid is false whenever the cached pair cannot
// be trusted: before the first compute, after a cache-hit replay or a
// degeneracy fallback (neither computes a skyline), or mid-abandoned
// repair.
type kinState struct {
	valid bool
	ids   []int
	disks []geom.Disk
	sl    skyline.Skyline
}

// checkInvariants is the runtime envelope check computeNode applies to
// every freshly computed skyline. A package variable so the fallback path
// can be exercised deterministically from tests; production code never
// reassigns it.
var checkInvariants = func(sl skyline.Skyline, n int) error {
	return sl.CheckInvariants(n)
}

// New returns an engine with the given configuration. The cache, when
// enabled, persists across Compute and Update calls, so recomputing a
// relabeled copy of a network hits it wholesale.
func New(cfg Config) *Engine {
	e := &Engine{cfg: cfg}
	if cfg.Cache {
		e.cache = newSkyCache()
	}
	return e
}

// Compute runs the full whole-network pass: index the nodes in a spatial
// grid, then solve every node's MLDCS, sharding the grid's cells over the
// worker pool. Node IDs must equal their slice positions and radii must be
// positive (as in network.Build). The nodes slice is copied.
func (e *Engine) Compute(nodes []network.Node) (*Result, error) {
	m := engInstr.Load()
	start := time.Now()

	maxR := 0.0
	for i, n := range nodes {
		if n.ID != i {
			return nil, fmt.Errorf("engine: node at position %d has ID %d; IDs must be dense", i, n.ID)
		}
		if !(n.Radius > 0) {
			return nil, fmt.Errorf("engine: node %d has non-positive radius %g", i, n.Radius)
		}
		if n.Radius > maxR {
			maxR = n.Radius
		}
	}
	e.nodes = append(e.nodes[:0], nodes...)
	e.fwd = make([][]int, len(nodes))
	e.hubIn = make([]bool, len(nodes))
	e.nbrs = make([][]int, len(nodes))
	e.grid = nil
	e.stats = Stats{Nodes: len(nodes)}
	e.fallbacks.Store(0)
	// Invalidate (but keep) the kinetic state: per-node buffers persist
	// across passes so a steady Compute/Update cadence stays allocation-free.
	if cap(e.kin) >= len(nodes) {
		e.kin = e.kin[:len(nodes)]
		for i := range e.kin {
			e.kin[i].valid = false
		}
	} else {
		e.kin = make([]kinState, len(nodes))
	}

	if len(nodes) == 0 {
		e.epoch++
		return e.snapshot(), nil
	}
	cell := e.cfg.CellSize
	if cell <= 0 {
		cell = maxR
	}
	pts := make([]geom.Point, len(nodes))
	for i, n := range nodes {
		pts[i] = n.Pos
	}
	e.grid = spatial.NewGrid(pts, cell)
	cells := e.grid.Cells()
	e.stats.Cells = len(cells)

	hits0, misses0 := e.cache.counts()
	var passSpan obs.Span
	var spanCell *obs.SpanKind
	if m != nil {
		passSpan = m.spanCompute.Begin()
		spanCell = m.spanCell
	}
	e.buildComputeItems(cells)
	var firstErr runErr
	workers := e.forEachTask(len(e.items), func(i int, sc *scratch) {
		it := e.items[i]
		batch := cells[it.cell][it.lo:it.hi]
		batchSpan := spanCell.Begin()
		for _, u := range batch {
			if err := e.computeNode(u, sc); err != nil {
				firstErr.set(err)
				break
			}
		}
		sc.load.nodes += len(batch)
		if batchSpan.Sampled() {
			batchSpan.End(map[string]any{"cell": int(it.cell), "nodes": len(batch)})
		}
	})
	if err := firstErr.get(); err != nil {
		return nil, err
	}
	e.stats.Workers = workers
	e.stats.recordLoads(e.lastLoads)
	e.stats.Dirty = len(nodes)
	e.stats.Fallbacks = int(e.fallbacks.Load())
	hits1, misses1 := e.cache.counts()
	e.stats.CacheHits = hits1 - hits0
	e.stats.CacheMisses = misses1 - misses0
	for _, nb := range e.nbrs {
		e.stats.Edges += len(nb)
	}

	e.epoch++
	if m != nil {
		m.recordCompute(e.stats, time.Since(start), e.cache)
	}
	if passSpan.Sampled() {
		passSpan.End(map[string]any{
			"nodes":   e.stats.Nodes,
			"cells":   e.stats.Cells,
			"workers": e.stats.Workers,
		})
	}
	return e.snapshot(), nil
}

// snapshot builds a Result view of the engine's current state. Top-level
// slices are copied so later Updates do not mutate the snapshot; per-node
// slices are replaced (never written through) by Update, so shared
// sub-slices stay consistent.
func (e *Engine) snapshot() *Result {
	return &Result{
		Epoch:      e.epoch,
		Forwarding: append([][]int(nil), e.fwd...),
		HubInCover: append([]bool(nil), e.hubIn...),
		Neighbors:  append([][]int(nil), e.nbrs...),
		Stats:      e.stats,
	}
}

// Result returns a snapshot of the engine's current per-node output (the
// same view the last Compute or Update returned).
func (e *Engine) Result() *Result { return e.snapshot() }

// CacheLen returns the number of distinct neighborhood fingerprints
// currently cached (0 when the cache is disabled).
func (e *Engine) CacheLen() int { return e.cache.len() }

// scratch holds one worker's reusable buffers, including the skyline
// package's working memory. All slices are grown once and then recycled,
// and per-node outputs are compare-and-kept against the previous pass, so
// a steady-state recompute (same geometry, warm buffers) performs zero
// heap allocations per node — the allocation regression tests pin this.
type scratch struct {
	ids        []int           // gathered neighbor IDs
	tuples     []nbTuple       // canonical neighbor ordering
	tupleTmp   []nbTuple       // merge buffer for sortTuples
	disks      []geom.Disk     // hub-frame disk set handed to the skyline
	key        []byte          // fingerprint bytes
	sky        skyline.Scratch // skyline working memory (ComputeInto)
	sl         skyline.Skyline // reusable skyline output
	cover      []int           // reusable skyline set
	canon      []int32         // reusable canonical cover positions
	canonArena []int32         // chunked backing store for cache-entry canons
	fwdBuf     []int           // reusable mapped forwarding IDs
	hits       int64           // cache counters, flushed once per worker
	misses     int64
	bypass     bool // adaptive cache bypass tripped this pass
	// l1 is this worker's private front over the shared striped cache:
	// lock-free replay of fingerprints this worker has already resolved,
	// bounded by l1MaxEntries (see cache.go). Persisting with the scratch
	// across passes keeps structured steady-state workloads entirely off
	// the shared shards.
	l1 map[string]cacheEntry
	// load books this worker's share of the current pass (pool.go).
	load workerLoad
	// Kinetic repair buffers (see kinetic.go): the sorted candidate
	// movers, the neighborhood diff lists, and the skyline the repair
	// surgery ping-pongs through.
	lost    []int
	gained  []int
	movedNb []int
	cands   []int
	ksl     skyline.Skyline
}

// ownCanon returns a copy of sc.canon that outlives the scratch, carved
// from a chunked arena so a cache-cold pass performs a handful of block
// allocations instead of one small allocation per miss.
//
//mldcs:hotpath
func (sc *scratch) ownCanon() []int32 {
	n := len(sc.canon)
	if cap(sc.canonArena)-len(sc.canonArena) < n {
		//mldcslint:allow hotpathalloc arena block growth, one allocation amortized over thousands of entries
		sc.canonArena = make([]int32, 0, max(4096, n))
	}
	start := len(sc.canonArena)
	sc.canonArena = append(sc.canonArena, sc.canon...)
	return sc.canonArena[start : start+n : start+n]
}

// nbTuple is one neighbor disk in the hub-at-origin frame, carrying the
// raw float bits used for canonical ordering and fingerprinting.
type nbTuple struct {
	xb, yb, rb uint64
	disk       geom.Disk
	id         int
}

// computeNode recomputes node u's neighborhood and forwarding set. It
// mirrors network.Build's bidirectional link predicate exactly (same grid
// query, same tolerance), so Neighbors matches Graph.Neighbors bit for
// bit; the local set is then canonicalized and solved (or replayed from
// the cache).
//
//mldcs:hotpath
func (e *Engine) computeNode(u int, sc *scratch) error {
	var nodeSpan obs.Span
	if m := engInstr.Load(); m != nil {
		//mldcslint:allow hotpathalloc span begin runs only with instrumentation attached; TestComputeNodeInstrumentedAllocs bounds it
		nodeSpan = m.spanNode.Begin()
	}
	hub := e.nodes[u]
	sc.ids = sc.ids[:0]
	//mldcslint:allow hotpathalloc closure does not escape VisitWithin, so it stays on the stack; TestComputeNodeSteadyStateAllocs pins the pass at zero
	e.grid.VisitWithin(hub.Pos, hub.Radius, func(v int) {
		if v == u {
			return
		}
		if !geom.Reaches(e.nodes[v].Pos, hub.Pos, e.nodes[v].Radius) {
			return // v cannot reach back
		}
		sc.ids = append(sc.ids, v)
	})
	sort.Ints(sc.ids)
	e.nbrs[u] = keepInts(e.nbrs[u], sc.ids)

	// Canonical ordering: neighbors in the hub frame sorted by their raw
	// coordinate bits. The order is independent of node IDs and of the
	// node's absolute position, so two nodes anywhere in the network with
	// bit-identical relative neighborhoods produce the same disk sequence —
	// and hence the same skyline computation and the same fingerprint.
	// The sort is stable over ids already in ascending order, so exact
	// duplicate disks keep their ID order and the skyline's canonical
	// tie-break (larger radius, then lower index) picks the same
	// representative the per-node solver would.
	sc.tuples = sc.tuples[:0]
	for _, v := range sc.ids {
		d := e.nodes[v].Disk().Translate(hub.Pos)
		sc.tuples = append(sc.tuples, nbTuple{
			xb:   math.Float64bits(d.C.X),
			yb:   math.Float64bits(d.C.Y),
			rb:   math.Float64bits(d.R),
			disk: d,
			id:   v,
		})
	}
	sortTuples(sc)

	var shard *cacheShard
	if e.cache != nil && !sc.bypass {
		sc.key = appendFingerprint(sc.key[:0], hub.Radius, sc.tuples)
		// L1 front first: a fingerprint this worker has already resolved
		// replays without touching the shared shards (no hash, no lock).
		ent, ok := sc.l1[string(sc.key)]
		if !ok {
			shard = e.cache.shard(sc.key)
			if ent, ok = shard.get(sc.key); ok {
				// Promote the shared hit into the private front so this
				// worker's next encounter is lock-free.
				//mldcslint:allow hotpathalloc L1 promotion inserts at most l1MaxEntries distinct keys per worker over the engine's lifetime; steady state only reads
				sc.l1Put(sc.key, ent)
			}
		}
		if ok {
			sc.hits++
			// A replayed entry carries no skyline, so the kinetic state
			// cannot be refreshed; repair for this node resumes after its
			// next full compute.
			e.kin[u].valid = false
			sc.fwdBuf = appendMappedCover(sc.fwdBuf[:0], ent.canon, sc.tuples)
			sc.fwdBuf = mutateForwarding(sc.fwdBuf, u)
			e.fwd[u] = keepInts(e.fwd[u], sc.fwdBuf)
			e.hubIn[u] = ent.hubIn
			if nodeSpan.Sampled() {
				//mldcslint:allow hotpathalloc span finalization runs only for sampled spans, off the steady path
				nodeSpan.End(map[string]any{"node": u, "neighbors": len(sc.ids), "cached": true})
			}
			return nil
		}
		sc.misses++
		if sc.hits+sc.misses >= cacheBypassWindow && sc.hits*cacheBypassRatio < sc.misses {
			sc.bypass = true
		}
	}

	sc.disks = sc.disks[:0]
	sc.disks = append(sc.disks, geom.Disk{R: hub.Radius})
	for i := range sc.tuples {
		sc.disks = append(sc.disks, sc.tuples[i].disk)
	}
	// The local-disk-set precondition holds by construction — Compute
	// validated the hub radius and the link predicate only admits neighbors
	// that reach back over the hub — so the validation pass is skipped; a
	// degenerate result is still caught by the invariant check below.
	sc.sl = sc.sky.ComputeIntoUnchecked(sc.sl, sc.disks)
	if ierr := checkInvariants(sc.sl, len(sc.disks)); ierr != nil {
		//mldcslint:allow hotpathalloc degeneracy fallback, cold by construction (invariant violations are counted and rare)
		e.fallbackNode(u, ierr)
		if nodeSpan.Sampled() {
			//mldcslint:allow hotpathalloc span finalization runs only for sampled spans, off the steady path
			nodeSpan.End(map[string]any{"node": u, "neighbors": len(sc.ids), "fallback": true})
		}
		return nil
	}
	if !e.cfg.DisableRepair {
		// Seed the kinetic state for Update's repair path: the neighbor IDs
		// in tuple (canonical) order, parallel to disks[1:], plus the
		// freshly verified skyline. append-into keeps the steady path free
		// of allocations once the per-node buffers are warm.
		st := &e.kin[u]
		st.ids = st.ids[:0]
		for i := range sc.tuples {
			st.ids = append(st.ids, sc.tuples[i].id)
		}
		st.disks = append(st.disks[:0], sc.disks...)
		st.sl = append(st.sl[:0], sc.sl...)
		st.valid = true
	}
	sc.cover = sc.sl.AppendSet(sc.cover)
	hubIn := false
	sc.canon = sc.canon[:0]
	for _, i := range sc.cover {
		if i == 0 {
			hubIn = true
			continue
		}
		sc.canon = append(sc.canon, int32(i-1))
	}
	sc.fwdBuf = appendMappedCover(sc.fwdBuf[:0], sc.canon, sc.tuples)
	sc.fwdBuf = mutateForwarding(sc.fwdBuf, u)
	e.fwd[u] = keepInts(e.fwd[u], sc.fwdBuf)
	e.hubIn[u] = hubIn
	if shard != nil {
		// The entry outlives the scratch buffers, so it owns its canon copy
		// (arena-backed); put itself copies the key. Misses are the only
		// allocating branch of the per-node loop, and a steady-state pass
		// has none. The fresh entry also seeds this worker's L1 front so a
		// re-encounter replays without the shared shard.
		ent := cacheEntry{hubIn: hubIn, canon: sc.ownCanon()}
		shard.put(sc.key, ent)
		//mldcslint:allow hotpathalloc miss path only — bounded by l1MaxEntries distinct fingerprints per worker; steady-state passes never miss
		sc.l1Put(sc.key, ent)
	}
	if nodeSpan.Sampled() {
		//mldcslint:allow hotpathalloc span finalization runs only for sampled spans, off the steady path
		nodeSpan.End(map[string]any{"node": u, "neighbors": len(sc.ids), "cover": len(sc.fwdBuf)})
	}
	return nil
}

// keepInts returns old unchanged when it already holds exactly the values
// of cur — earlier snapshots share that slice, and reusing it keeps the
// steady-state path allocation-free — and a fresh copy of cur otherwise.
// Engine outputs are never written through, so sharing is safe.
//
//mldcs:hotpath
func keepInts(old, cur []int) []int {
	if len(old) == len(cur) {
		same := true
		for i, v := range cur {
			if old[i] != v {
				same = false
				break
			}
		}
		if same {
			return old
		}
	}
	//mldcslint:allow hotpathalloc cold branch: copies only when the value set changed; steady state returns old
	out := make([]int, len(cur))
	copy(out, cur)
	return out
}

// sortTuples orders the worker's tuple buffer by the raw (rb, xb, yb) bits
// with a bottom-up stable merge sort through sc.tupleTmp. Stability over
// the ascending-ID gather order is what lets exact duplicate disks keep
// their ID order for the canonical tie-break; sort.SliceStable provides it
// too but allocates its reflect-based swapper on every call, which is the
// kind of per-node garbage this loop must not produce.
//
//mldcs:hotpath
func sortTuples(sc *scratch) {
	n := len(sc.tuples)
	if n < 2 {
		return
	}
	if cap(sc.tupleTmp) < n {
		//mldcslint:allow hotpathalloc merge-buffer growth, amortized to zero once the scratch is warm
		sc.tupleTmp = make([]nbTuple, n)
	}
	src, dst := sc.tuples[:n], sc.tupleTmp[:n]
	inTuples := true
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := min(lo+width, n)
			hi := min(lo+2*width, n)
			mergeTuples(dst[lo:hi], src[lo:mid], src[mid:hi])
		}
		src, dst = dst, src
		inTuples = !inTuples
	}
	if !inTuples {
		copy(sc.tuples, src)
	}
}

// mergeTuples merges the sorted runs a and b into dst, taking from a on
// ties (stability). len(dst) == len(a)+len(b).
func mergeTuples(dst, a, b []nbTuple) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if tupleLess(&b[j], &a[i]) {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// tupleLess is the canonical neighbor order: ascending raw radius bits,
// then center x bits, then center y bits.
func tupleLess(a, b *nbTuple) bool {
	if a.rb != b.rb {
		return a.rb < b.rb
	}
	if a.xb != b.xb {
		return a.xb < b.xb
	}
	return a.yb < b.yb
}

// fallbackNode installs the degeneracy-safe answer for node u after its
// computed skyline failed the runtime invariant check: the full local set
// — every neighbor relays and the hub's own disk stays in the cover —
// which is a correct (if non-minimal) cover of any local disk set. The
// event is counted in Stats.Fallbacks and logged through internal/obs.
// The result is deliberately not cached: a fingerprint-colliding healthy
// neighborhood must not replay a degenerate answer.
func (e *Engine) fallbackNode(u int, cause error) {
	e.kin[u].valid = false
	e.fwd[u] = append([]int(nil), e.nbrs[u]...)
	e.hubIn[u] = true
	e.fallbacks.Add(1)
	if m := engInstr.Load(); m != nil {
		m.recordFallback(u, len(e.nbrs[u]), cause)
	}
}

// appendMappedCover translates canonical cover positions back to sorted
// node IDs, appending to dst (scratch-buffer friendly: pass dst[:0]).
//
//mldcs:hotpath
func appendMappedCover(dst []int, canon []int32, tuples []nbTuple) []int {
	for _, p := range canon {
		dst = append(dst, tuples[p].id)
	}
	sort.Ints(dst)
	return dst
}

// runErr collects the first error raised inside the worker pool.
type runErr struct {
	mu  sync.Mutex
	err error
}

func (f *runErr) set(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

func (f *runErr) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// reset clears the collector for reuse across passes.
func (f *runErr) reset() {
	f.mu.Lock()
	f.err = nil
	f.mu.Unlock()
}
