package skyline

import (
	"math"

	"repro/internal/geom"
)

// The prefilter is Akl and Toussaint's throw-away step moved from convex
// hulls to star-shaped unions of disks. Dense neighbourhoods have skylines
// far smaller than the 2n arcs Lemma 8 allows (perfbench's hotspot sets:
// ~175 disks, ~11 of them on the skyline), yet the divide-and-conquer
// merges every disk. A pass over 16 fixed sectors first drops the disks
// that provably never reach the envelope; the D&C then merges only the
// survivors (see compute).
//
// Soundness. ρ_j(θ) = b + sqrt(b² + r_j² − ‖c_j‖²) with b = c_j·e(θ)
// increases with b, and b = ‖c_j‖cos(θ − φ_j) is circularly unimodal, so
// over a sector narrower than π the extremes of ρ_j sit at the sector's
// endpoints, except that the maximum is ‖c_j‖ + r_j when c_j points into
// the sector and the minimum is r_j − ‖c_j‖ when −c_j does. Hence
//
//	L_k = max_j min_{θ∈sector k} ρ_j(θ)
//
// bounds the envelope from below on all of sector k. A disk d with
// max_{θ∈sector k} ρ_d(θ) < L_k − margin in every sector lies below the
// envelope by more than the margin at every angle. The margin,
// 1e-7·(1 + L_k), is a hundred times geom.RhoEps at unit scale and far
// above the rounding of the ρ evaluations, so d loses every RhoCmp
// against the envelope's owner and wins no arc: it is not in the skyline.
//
// A dropped disk can still matter to the unfiltered D&C: one of its
// breakpoints may absorb a skyline breakpoint within geom.AngleEps (see
// canonicalBoundaries, which removes that dependence). Bit identity with
// ComputeUnfiltered is therefore observed, not proven;
// TestPrefilterBitIdentical, TestPrefilterCoincidentCrossings and the
// fuzz targets pin it element for element.

const (
	// prefilterSectors is the number of fixed sectors; a power of two so
	// sector indices wrap with a mask.
	prefilterSectors = 16
	// prefilterMargin is the relative drop margin (see above).
	prefilterMargin = 1e-7
)

// sectorX and sectorY hold the unit vector of the sector boundary at
// angle 2πk/16; sector k spans [θ_k, θ_k+1). Computed once, so the filter
// itself does no trigonometry.
var sectorX, sectorY = func() (xs, ys [prefilterSectors]float64) {
	for k := range xs {
		e := geom.Unit(geom.TwoPi * float64(k) / prefilterSectors)
		xs[k], ys[k] = e.X, e.Y
	}
	return xs, ys
}()

// prefilter marks the disks that provably never reach the envelope. It
// fills sc.keep with the surviving input indices in order and sc.rank with
// prefix counts (rank[i] survivors have index < i), and returns how many
// disks it dropped; when none was, compute needs neither slice.
//
// ρ is evaluated as b + sqrt(b² + r² − ‖c‖²), the far root of
// geom.Disk.RayDistDir, which is real whenever r² ≥ ‖c‖². A disk that
// fails that test — hub-tangent up to rounding, or garbage that
// ComputeIntoUnchecked was not supposed to get, NaN included — is kept
// and contributes nothing to the bounds.
//
//mldcs:hotpath
func (sc *Scratch) prefilter(disks []geom.Disk) (dropped int) {
	const mask = prefilterSectors - 1
	need := len(disks) * prefilterSectors
	if cap(sc.sectorUp) < need {
		//mldcslint:allow hotpathalloc grows once to the largest set this Scratch has filtered; steady state reuses it
		sc.sectorUp = make([]float64, need)
	}
	up := sc.sectorUp[:need]
	var floor [prefilterSectors]float64 // L_k
	for k := range floor {
		floor[k] = math.Inf(-1)
	}
	// Pass 1: per disk, its ρ bounds over every sector. The sector upper
	// bounds are kept (16 per disk) for pass 2; the lower bounds raise L_k.
	for i, d := range disks {
		h := up[i*prefilterSectors : (i+1)*prefilterSectors]
		n2 := d.C.Norm2()
		s := d.R*d.R - n2
		if !(s >= 0) {
			for k := range h {
				h[k] = math.Inf(1)
			}
			continue
		}
		var b, rho [prefilterSectors]float64
		for k := range b {
			bk := d.C.X*sectorX[k] + d.C.Y*sectorY[k]
			b[k] = bk
			rho[k] = bk + math.Sqrt(bk*bk+s)
		}
		cn := math.Sqrt(n2)
		for k := range h {
			ra, rb := rho[k], rho[(k+1)&mask]
			lo, hi := ra, rb
			if rb < ra {
				lo, hi = rb, ra
			}
			// c·e at the boundary a quarter turn ahead is the cross product
			// e_k × c, so these two signs place c (and −c) in sector k.
			p, q := b[(k+4)&mask], b[(k+5)&mask]
			if p >= 0 && q <= 0 {
				hi = cn + d.R
			}
			if p <= 0 && q >= 0 {
				lo = d.R - cn
			}
			if lo > floor[k] {
				floor[k] = lo
			}
			h[k] = hi
		}
	}
	var thr [prefilterSectors]float64
	for k, l := range floor {
		thr[k] = l - prefilterMargin*(1+l)
	}
	// Pass 2: keep every disk that may reach L_k − margin in some sector.
	// The negated comparison keeps a disk whenever a bound is NaN.
	keep, rank := sc.keep[:0], sc.rank[:0]
	for i := range disks {
		rank = append(rank, len(keep))
		h := up[i*prefilterSectors : (i+1)*prefilterSectors]
		for k := range thr {
			if !(h[k] < thr[k]) {
				keep = append(keep, i)
				break
			}
		}
	}
	rank = append(rank, len(keep))
	sc.keep, sc.rank = keep, rank
	return len(disks) - len(keep)
}
