package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/geom"
	"repro/internal/skyline"
)

// Scaling validates Theorem 9 empirically: the divide-and-conquer skyline
// runs in O(n log n). For each input size it times the divide-and-conquer
// (skyline.ComputeUnfiltered: the prefilter in front of the production
// Compute is output-sensitive and would hide the shape), incremental, and
// (up to a cutoff) naive algorithms on random
// heterogeneous local disk sets, and records the skyline arc count against
// Lemma 8's 2n bound. The reported series are per-run times in
// microseconds and the normalized time t/(n·log₂ n) in nanoseconds, which
// should approach a constant for an O(n log n) algorithm.
func Scaling(cfg Config, sizes []int, naiveCutoff int) (Figure, error) {
	cfg = cfg.normalized()
	if len(sizes) == 0 {
		sizes = []int{64, 128, 256, 512, 1024, 2048, 4096}
	}
	if naiveCutoff <= 0 {
		naiveCutoff = 1024
	}
	dnc := Series{Label: "dnc µs"}
	inc := Series{Label: "incremental µs"}
	naive := Series{Label: "naive µs"}
	norm := Series{Label: "dnc ns/(n·lg n)"}
	arcs := Series{Label: "arcs / 2n"}

	rng := rand.New(rand.NewSource(cfg.Seed))
	reps := cfg.Replications
	if reps > 20 {
		reps = 20 // timing runs need far fewer replications than statistics
	}
	for _, n := range sizes {
		var tDnc, tInc, tNaive time.Duration
		arcRatio := 0.0
		naiveRuns := 0
		for rep := 0; rep < reps; rep++ {
			disks := randomLocalDisks(rng, n)
			start := time.Now()
			sl, err := skyline.ComputeUnfiltered(disks)
			if err != nil {
				return Figure{}, err
			}
			tDnc += time.Since(start)
			arcRatio += float64(sl.ArcCount()) / float64(2*n)
			if sl.ArcCount() > 2*n {
				return Figure{}, fmt.Errorf("scaling: Lemma 8 violated at n=%d: %d arcs", n, sl.ArcCount())
			}

			start = time.Now()
			if _, err := skyline.ComputeIncremental(disks); err != nil {
				return Figure{}, err
			}
			tInc += time.Since(start)

			// The naive oracle is O(n² log n); cap both its size and its
			// repetitions so the scaling experiment stays interactive.
			if n <= naiveCutoff && naiveRuns < 3 {
				start = time.Now()
				if _, err := skyline.ComputeNaive(disks); err != nil {
					return Figure{}, err
				}
				tNaive += time.Since(start)
				naiveRuns++
			}
		}
		x := float64(n)
		dnc.X = append(dnc.X, x)
		dnc.Y = append(dnc.Y, float64(tDnc.Microseconds())/float64(reps))
		inc.X = append(inc.X, x)
		inc.Y = append(inc.Y, float64(tInc.Microseconds())/float64(reps))
		if naiveRuns > 0 {
			naive.X = append(naive.X, x)
			naive.Y = append(naive.Y, float64(tNaive.Microseconds())/float64(naiveRuns))
		}
		norm.X = append(norm.X, x)
		norm.Y = append(norm.Y, float64(tDnc.Nanoseconds())/float64(reps)/(x*math.Log2(x)))
		arcs.X = append(arcs.X, x)
		arcs.Y = append(arcs.Y, arcRatio/float64(reps))
	}
	return Figure{
		ID:     "scaling",
		Title:  "Skyline runtime scaling (Theorem 9) and arc bound (Lemma 8)",
		XLabel: "disks n",
		YLabel: "time / ratio",
		Series: []Series{dnc, inc, naive, norm, arcs},
		Notes: []string{
			"dnc ns/(n·lg n) should flatten for an O(n log n) algorithm",
			"arcs/2n stays ≤ 1 per Lemma 8 (typically far below: most disks are buried)",
		},
	}, nil
}

// randomLocalDisks generates n disks containing the origin with radii in
// [1, 2] (the paper's heterogeneous model).
func randomLocalDisks(rng *rand.Rand, n int) []geom.Disk {
	disks := make([]geom.Disk, n)
	for i := range disks {
		r := 1 + rng.Float64()
		dist := rng.Float64() * r * 0.999
		theta := rng.Float64() * geom.TwoPi
		disks[i] = geom.Disk{C: geom.Unit(theta).Scale(dist), R: r}
	}
	return disks
}
