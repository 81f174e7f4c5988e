package skyline

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/obs"
)

func benchSets(n int) [][]geom.Disk {
	rng := rand.New(rand.NewSource(1))
	sets := make([][]geom.Disk, 16)
	for i := range sets {
		sets[i] = randomLocalSet(rng, n)
	}
	return sets
}

// BenchmarkCompute is the reference number for the disabled-instrumentation
// fast path; BenchmarkComputeInstrumented is the same workload with a live
// registry, quantifying the observability overhead.
func BenchmarkCompute(b *testing.B) {
	for _, n := range []int{16, 128, 1024} {
		sets := benchSets(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Compute(sets[i%len(sets)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkComputeInstrumented(b *testing.B) {
	Instrument(obs.NewRegistry())
	defer Instrument(nil)
	for _, n := range []int{16, 128, 1024} {
		sets := benchSets(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Compute(sets[i%len(sets)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkComputeInto is the steady-state hot path: a caller-held Scratch
// and a reused destination, as the engine's per-node loop runs it. The
// allocs/op column must read 0.
func BenchmarkComputeInto(b *testing.B) {
	for _, n := range []int{16, 128, 1024} {
		sets := benchSets(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var sc Scratch
			var dst Skyline
			var err error
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if dst, err = sc.ComputeInto(dst, sets[i%len(sets)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
