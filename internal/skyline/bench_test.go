package skyline

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/obs"
)

// benchCase is one input family of BenchmarkCompute and
// BenchmarkComputeInto: 16 sets of n disks drawn by gen from a fixed seed.
type benchCase struct {
	name string
	n    int
	gen  func(*rand.Rand, int) []geom.Disk
}

// benchCases spans the kernel's regimes: the paper's r∈[1,2] sets up to
// n = 4096, plus a dense hotspot-like neighbourhood (perfbench's
// hotspot-dense local sets hold ~175 disks).
var benchCases = []benchCase{
	{"n=16", 16, randomLocalSet},
	{"n=128", 128, randomLocalSet},
	{"n=1024", 1024, randomLocalSet},
	{"n=4096", 4096, randomLocalSet},
	{"dense-n=175", 175, denseLocalSet},
}

func benchSets(c benchCase) [][]geom.Disk {
	rng := rand.New(rand.NewSource(1))
	sets := make([][]geom.Disk, 16)
	for i := range sets {
		sets[i] = c.gen(rng, c.n)
	}
	return sets
}

// BenchmarkCompute is the reference number for the disabled-instrumentation
// fast path; BenchmarkComputeInstrumented is the same workload with a live
// registry, quantifying the observability overhead.
func BenchmarkCompute(b *testing.B) {
	for _, c := range benchCases {
		sets := benchSets(c)
		b.Run(c.name, func(b *testing.B) {
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
	for _, c := range benchCases {
		sets := benchSets(c)
		b.Run(c.name, func(b *testing.B) {
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
	for _, c := range benchCases {
		sets := benchSets(c)
		b.Run(c.name, func(b *testing.B) {
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
