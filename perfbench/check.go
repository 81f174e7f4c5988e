package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/mldcs"
	"repro/internal/mldcsd"
	"repro/internal/network"
)

// answer is a whole-network result in the engine's dense form.
type answer struct {
	neighbors, forwarding [][]int
	hubIn                 []bool
}

func fromResult(r *engine.Result) answer {
	return answer{neighbors: r.Neighbors, forwarding: r.Forwarding, hubIn: r.HubInCover}
}

// oracle solves every node with the single-threaded sequential pipeline:
// network.Build, Graph.LocalSet and mldcs.Solve, the per-hub algorithm
// with none of the engine's machinery.
func oracle(nodes []network.Node) (answer, error) {
	g, err := network.Build(nodes, network.Bidirectional)
	if err != nil {
		return answer{}, fmt.Errorf("oracle build: %w", err)
	}
	n := g.Len()
	a := answer{neighbors: make([][]int, n), forwarding: make([][]int, n), hubIn: make([]bool, n)}
	for u := 0; u < n; u++ {
		ls, ids, err := g.LocalSet(u)
		if err != nil {
			return answer{}, fmt.Errorf("oracle local set %d: %w", u, err)
		}
		res, err := mldcs.Solve(ls)
		if err != nil {
			return answer{}, fmt.Errorf("oracle solve %d: %w", u, err)
		}
		fwd := make([]int, 0, len(res.Cover))
		for _, i := range res.NeighborCover() {
			fwd = append(fwd, ids[i])
		}
		sort.Ints(fwd)
		a.neighbors[u], a.forwarding[u], a.hubIn[u] = ids, fwd, res.ContainsHub()
	}
	return a, nil
}

// mismatches counts the nodes whose neighbours, forwarding set or hub flag
// differ between got and want, element for element.
func mismatches(got, want answer) int {
	if len(got.forwarding) != len(want.forwarding) || len(got.neighbors) != len(want.neighbors) || len(got.hubIn) != len(want.hubIn) {
		return max(len(want.forwarding), 1)
	}
	bad := 0
	for u := range want.forwarding {
		if !slices.Equal(got.forwarding[u], want.forwarding[u]) ||
			!slices.Equal(got.neighbors[u], want.neighbors[u]) ||
			got.hubIn[u] != want.hubIn[u] {
			bad++
		}
	}
	return bad
}

// oracleState renders the offline oracle's answer for a world as the
// /v1/state document the service must serve byte for byte.
func oracleState(world map[int64]nodeXYR, epoch, appliedSeq uint64) ([]byte, error) {
	ids := make([]int64, 0, len(world))
	for id := range world {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	n := len(ids)
	dense := make([]network.Node, n)
	xs, ys, rs := make([]float64, n), make([]float64, n), make([]float64, n)
	for i, id := range ids {
		st := world[id]
		dense[i] = network.Node{ID: i, Pos: geom.Pt(st.x, st.y), Radius: st.r}
		xs[i], ys[i], rs[i] = st.x, st.y, st.r
	}
	doc := mldcsd.StateDoc{Epoch: epoch, AppliedSeq: appliedSeq, Nodes: []mldcsd.NodeState{}}
	if n > 0 {
		a, err := oracle(dense)
		if err != nil {
			return nil, err
		}
		doc.Nodes = mldcsd.CanonicalNodes(ids, xs, ys, rs, a.neighbors, a.forwarding, a.hubIn)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(doc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkState compares a served /v1/state body with the oracle's document
// for the expected world and applied sequence number. The epoch depends
// on how the service coalesced batches, so it is taken from the body.
func checkState(body []byte, world map[int64]nodeXYR, appliedSeq uint64) error {
	var head struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(body, &head); err != nil {
		return fmt.Errorf("state: %w", err)
	}
	want, err := oracleState(world, head.Epoch, appliedSeq)
	if err != nil {
		return err
	}
	if !bytes.Equal(body, want) {
		return fmt.Errorf("state: served document (%d bytes) differs from the oracle's (%d bytes)", len(body), len(want))
	}
	return nil
}
