package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/geom"
	"repro/internal/mldcs"
	"repro/internal/network"
)

// nodesFromBytes deterministically decodes a byte string into a valid node
// set: each 6-byte chunk becomes one node on an 8×8 region with radius in
// [1, 2]. Repeated chunks produce exactly co-located nodes, so the fuzzer
// reaches the cache's duplicate-fingerprint paths and the skyline's
// degenerate tie-breaks.
func nodesFromBytes(data []byte) []network.Node {
	var nodes []network.Node
	for len(data) >= 6 && len(nodes) < 48 {
		chunk := data[:6]
		data = data[6:]
		u := binary.LittleEndian.Uint16(chunk[0:2])
		v := binary.LittleEndian.Uint16(chunk[2:4])
		w := binary.LittleEndian.Uint16(chunk[4:6])
		nodes = append(nodes, network.Node{
			ID:     len(nodes),
			Pos:    geom.Pt(float64(u)/65535*8, float64(v)/65535*8),
			Radius: 1 + float64(w)/65535,
		})
	}
	if len(nodes) == 0 {
		nodes = []network.Node{{ID: 0, Pos: geom.Pt(0, 0), Radius: 1}}
	}
	return nodes
}

// FuzzEngineVsSequential feeds arbitrary node sets to the engine across
// worker counts and cache settings and cross-checks every output against
// the sequential per-node pipeline (network.Build + Graph.LocalSet +
// mldcs.Solve). Any divergence — neighborhoods, forwarding sets, or hub
// flags — is a bug in the sharding, the canonicalization, or the cache.
func FuzzEngineVsSequential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6})
	seed := make([]byte, 6*12)
	for i := range seed {
		seed[i] = byte(i * 53)
	}
	f.Add(seed)
	// Two co-located triples: identical neighborhoods exercise cache hits.
	cluster := append(
		bytes.Repeat([]byte{0, 32, 0, 32, 0, 128}, 3),
		bytes.Repeat([]byte{0, 192, 0, 192, 0, 128}, 3)...)
	f.Add(cluster)
	f.Fuzz(func(t *testing.T, data []byte) {
		nodes := nodesFromBytes(data)
		g, err := network.Build(nodes, network.Bidirectional)
		if err != nil {
			t.Fatalf("valid-by-construction nodes rejected: %v", err)
		}
		fwd := make([][]int, g.Len())
		hubIn := make([]bool, g.Len())
		for u := 0; u < g.Len(); u++ {
			ls, ids, err := g.LocalSet(u)
			if err != nil {
				t.Fatal(err)
			}
			r, err := mldcs.Solve(ls)
			if err != nil {
				t.Fatal(err)
			}
			for _, i := range r.NeighborCover() {
				fwd[u] = append(fwd[u], ids[i])
			}
			hubIn[u] = r.ContainsHub()
		}
		for _, workers := range []int{1, 3} {
			for _, cache := range []bool{false, true} {
				res, err := New(Config{Workers: workers, Cache: cache}).Compute(nodes)
				if err != nil {
					t.Fatalf("workers=%d cache=%v: %v", workers, cache, err)
				}
				for u := range nodes {
					if !equalSets(res.Neighbors[u], g.Neighbors(u)) {
						t.Fatalf("workers=%d cache=%v: node %d neighbors = %v, want %v",
							workers, cache, u, res.Neighbors[u], g.Neighbors(u))
					}
					if !equalSets(res.Forwarding[u], fwd[u]) {
						t.Fatalf("workers=%d cache=%v: node %d forwarding = %v, want %v",
							workers, cache, u, res.Forwarding[u], fwd[u])
					}
					if res.HubInCover[u] != hubIn[u] {
						t.Fatalf("workers=%d cache=%v: node %d hubInCover = %v, want %v",
							workers, cache, u, res.HubInCover[u], hubIn[u])
					}
				}
			}
		}
	})
}

// FuzzEngineUpdateVsCompute drives Update with node sets and move streams
// decoded from the fuzz bytes and requires every tick to be
// element-identical to a fresh Compute of the same nodes, for one and
// three workers with the cache on and off. The first byte picks the node
// count n (1..24); the next 6n bytes are nodes as in nodesFromBytes; every
// following 4-byte group is one move: node index, x and y displacement in
// [−0.5, 0.5), and a flag byte whose bit 0 ends the tick after this move
// and whose bit 1 also redraws the node's radius in [1, 2]. Displacements
// near zero keep a mover inside its neighbors' link ranges (the kinetic
// repair path); larger ones cross link boundaries (gained and lost
// neighbors).
func FuzzEngineUpdateVsCompute(f *testing.F) {
	f.Add([]byte{})
	seed := []byte{11}
	for i := 0; i < 6*12; i++ {
		seed = append(seed, byte(i*53))
	}
	f.Add(append(append([]byte(nil), seed...),
		0, 129, 127, 0, 3, 200, 60, 1, 7, 128, 131, 2, 5, 140, 100, 1, 0, 127, 128, 1))
	// A co-located triple: identical neighborhoods feed the cache, and a
	// mover leaving the stack splits them.
	stack := append([]byte{2}, bytes.Repeat([]byte{0, 32, 0, 32, 0, 128}, 3)...)
	stack = append(stack, 0, 64, 0, 128, 0, 0, 128, 131, 1, 2, 255, 128, 3)
	f.Add(stack)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%24
		data = data[1:]
		k := min(6*n, len(data)/6*6)
		nodes := nodesFromBytes(data[:k])
		data = data[k:]
		for _, workers := range []int{1, 3} {
			for _, cache := range []bool{false, true} {
				ecfg := Config{Workers: workers, Cache: cache}
				cur := append([]network.Node(nil), nodes...)
				e := New(ecfg)
				if _, err := e.Compute(cur); err != nil {
					t.Fatal(err)
				}
				tick := 0
				for i := 0; i+4 <= len(data); i += 4 {
					mv := data[i : i+4]
					u := int(mv[0]) % len(cur)
					cur[u].Pos.X += float64(int(mv[1])-128) / 256
					cur[u].Pos.Y += float64(int(mv[2])-128) / 256
					if mv[3]&2 != 0 {
						cur[u].Radius = 1 + float64(mv[3])/255
					}
					if mv[3]&1 == 0 && i+8 <= len(data) {
						continue
					}
					tick++
					got, err := e.Update(cur)
					if err != nil {
						t.Fatal(err)
					}
					want, err := New(ecfg).Compute(cur)
					if err != nil {
						t.Fatal(err)
					}
					requireSameResult(t, fmt.Sprintf("tick %d workers=%d cache=%v", tick, workers, cache), got, want)
				}
			}
		}
	})
}
