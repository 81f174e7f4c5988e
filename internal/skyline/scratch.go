package skyline

import (
	"sync"

	"repro/internal/geom"
)

// Scratch holds the reusable working memory of one skyline computation:
// the breakpoint buffer of the linear Merge, the arc arena the iterative
// divide-and-conquer stacks its intermediate skylines in, the span buffer
// each merge writes before the result is folded back into the arena, and
// the explicit frame stack that replaces the recursion. All buffers grow
// to the steady-state size of the workload and are then recycled, so a
// caller that keeps a Scratch alive (ComputeInto) performs zero heap
// allocations per computation once warm.
//
// The zero value is ready to use. A Scratch is not safe for concurrent
// use; give each goroutine its own (the whole-network engine keeps one
// per worker).
type Scratch struct {
	bps    []float64
	arena  Skyline
	out    Skyline
	frames []computeFrame
	// Kinetic-repair working memory (see kinetic.go): the ping-pong pair
	// a freed span's candidate envelope is resolved through.
	kinA Skyline
	kinB Skyline
}

// computeFrame is one suspended node of the divide-and-conquer tree in
// the iterative compute: the disk window [lo, hi), how far the node has
// progressed (state 0: left child pending, 1: right child pending, 2:
// merge pending), where its children's arcs start in the arena, and the
// node's depth for the recursion-depth gauge.
type computeFrame struct {
	lo, hi  int32
	base    int32
	leftLen int32
	state   int32
	depth   int32
}

// scratchPool backs the convenience entry points (Compute, Merge) that
// do not take an explicit Scratch: they borrow one here and return it,
// making their own allocation cost O(1) amortized — the returned result
// — instead of O(n log n) buffer churn.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

func getScratch() *Scratch {
	//mldcslint:allow scratchescape pool accessor; every caller pairs it with putScratch before returning
	return scratchPool.Get().(*Scratch)
}
func putScratch(sc *Scratch) { scratchPool.Put(sc) }

// ComputeInto computes the skyline of a local disk set into dst[:0],
// growing dst only when its capacity is exceeded, and returns it. This is
// the steady-state entry point: reusing both the Scratch and the returned
// slice across calls makes repeated computation allocation-free (the
// engine's per-node recompute and the allocation regression tests pin
// this at zero allocs). On error dst is returned unchanged.
//
// The result never aliases the Scratch's internal buffers, so it stays
// valid across later calls on the same Scratch as long as the caller does
// not pass it back as dst.
//
//mldcs:hotpath
func (sc *Scratch) ComputeInto(dst Skyline, disks []geom.Disk) (Skyline, error) {
	view, err := sc.view(disks)
	if err != nil {
		return dst, err
	}
	return append(dst[:0], view...), nil
}

// ComputeIntoUnchecked is ComputeInto without the local-disk-set
// validation pass. The caller must guarantee what checkLocal would have
// verified: disks is non-empty, every radius is positive and finite, and
// every disk contains the origin (within geom.Eps). The whole-network
// engine qualifies — its link predicate admits a neighbor disk only when
// it reaches back over the hub — and skips the n hypot calls per node that
// re-proving the precondition would cost. On garbage input the result is
// unspecified (callers with a runtime invariant check, like the engine's
// degeneracy fallback, degrade safely).
//
//mldcs:hotpath
func (sc *Scratch) ComputeIntoUnchecked(dst Skyline, disks []geom.Disk) Skyline {
	return append(dst[:0], sc.viewUnchecked(disks)...)
}

// view validates the disks and runs the iterative compute, returning the
// arena-backed result (valid until the next use of sc). Instrumentation
// mirrors Compute's exactly so the two entry points book identically.
func (sc *Scratch) view(disks []geom.Disk) (Skyline, error) {
	if err := checkLocal(disks); err != nil {
		return nil, err
	}
	return sc.viewUnchecked(disks), nil
}

// viewUnchecked is view after validation (or with the caller vouching for
// the precondition).
//
//mldcs:hotpath
func (sc *Scratch) viewUnchecked(disks []geom.Disk) Skyline {
	m := skyInstr.Load()
	if m == nil {
		return sc.compute(disks, 0, len(disks), nil)
	}
	m.computes.Inc()
	sw := m.computeSeconds.Start()
	sl := sc.compute(disks, 0, len(disks), m)
	sw.Stop()
	m.recordCompute(len(sl), len(disks))
	return sl
}

// compute is the iterative core: the paper's divide-and-conquer (split at
// the midpoint, solve both halves, Merge) driven bottom-up by an explicit
// frame stack instead of recursion. Child skylines are stacked in
// sc.arena; each merge ping-pongs through sc.out and is folded back over
// its children's slots, so at any moment the arena holds exactly one
// in-flight skyline per tree level — O(n) arcs total by Lemma 8. The
// traversal order and midpoint splits are identical to the old recursive
// version, so results are bit-for-bit unchanged.
//
//mldcs:hotpath
func (sc *Scratch) compute(disks []geom.Disk, lo, hi int, m *skyMetrics) Skyline {
	sc.arena = sc.arena[:0]
	fr := sc.frames[:0]
	fr = append(fr, computeFrame{lo: int32(lo), hi: int32(hi), depth: 1})
	for len(fr) > 0 {
		f := &fr[len(fr)-1]
		if f.hi-f.lo == 1 {
			if m != nil {
				m.depth.SetMax(float64(f.depth))
			}
			sc.arena = append(sc.arena, Arc{Start: 0, End: geom.TwoPi, Disk: int(f.lo)})
			fr = fr[:len(fr)-1]
			continue
		}
		mid := f.lo + (f.hi-f.lo)/2
		switch f.state {
		case 0:
			f.state = 1
			f.base = int32(len(sc.arena))
			fr = append(fr, computeFrame{lo: f.lo, hi: mid, depth: f.depth + 1})
		case 1:
			f.state = 2
			f.leftLen = int32(len(sc.arena)) - f.base
			fr = append(fr, computeFrame{lo: mid, hi: f.hi, depth: f.depth + 1})
		default:
			left := sc.arena[f.base : f.base+f.leftLen]
			right := sc.arena[f.base+f.leftLen:]
			out := mergeInto(sc.out[:0], sc, disks, left, right, true, m, nil)
			sc.out = out
			sc.arena = append(sc.arena[:f.base], out...)
			fr = fr[:len(fr)-1]
		}
	}
	sc.frames = fr
	return sc.arena
}
