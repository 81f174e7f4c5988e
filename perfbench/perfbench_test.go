package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/network"
	"repro/internal/obs"
)

// tinyScale shrinks every workload to a few hundred nodes or fewer.
const tinyScale = 0.004

func tinyInputs(t *testing.T, s spec, seed int64) *inputs {
	t.Helper()
	in, err := generate(s, s.plan(1, tinyScale), seed)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestInputsFollowSeed(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			a := tinyInputs(t, s, 7).fingerprint()
			b := tinyInputs(t, s, 7).fingerprint()
			c := tinyInputs(t, s, 8).fingerprint()
			if !bytes.Equal(a, b) {
				t.Error("seed 7 generated different inputs twice")
			}
			if bytes.Equal(a, c) {
				t.Error("seeds 7 and 8 generated identical inputs")
			}
		})
	}
}

func TestCheckerRejectsCorruptForwarding(t *testing.T) {
	nodes := tinyInputs(t, specs[0], 1).passes[0]
	res, err := engine.New(engineConfig()).Compute(nodes)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle(nodes)
	if err != nil {
		t.Fatal(err)
	}
	got := fromResult(res)
	if bad := mismatches(got, want); bad != 0 {
		t.Fatalf("engine differs from the oracle on %d nodes", bad)
	}
	u := -1
	for v, f := range got.forwarding {
		if len(f) > 0 {
			u = v
			break
		}
	}
	if u < 0 {
		t.Fatal("no node has a forwarding set")
	}
	corrupt := answer{neighbors: got.neighbors, hubIn: got.hubIn, forwarding: append([][]int(nil), got.forwarding...)}
	corrupt.forwarding[u] = corrupt.forwarding[u][1:]
	if bad := mismatches(corrupt, want); bad != 1 {
		t.Errorf("dropping one relay of node %d: %d mismatches, want 1", u, bad)
	}
}

func TestCheckerRejectsCorruptState(t *testing.T) {
	r := &run{spec: specs[0], in: tinyInputs(t, specs[0], 1), e2e: newReport(), layer: newReport(), reg: obs.NewRegistry()}
	s := r.startService(0)
	defer s.srv.Close()
	if r.failed != 0 {
		t.Fatalf("set-up failed: %v", r.errs)
	}
	// The world after set-up is exactly the join batches' nodes.
	world := map[int64]nodeXYR{}
	for _, body := range r.in.svc[0].joins {
		var b struct {
			Deltas []struct {
				Node    int64
				X, Y, R float64
			}
		}
		if err := json.Unmarshal(body, &b); err != nil {
			t.Fatal(err)
		}
		for _, d := range b.Deltas {
			world[d.Node] = nodeXYR{d.X, d.Y, d.R}
		}
	}
	seq := s.srv.Latest().AppliedSeq
	rec := httptest.NewRecorder()
	req, _ := http.NewRequest(http.MethodGet, "/v1/state", nil)
	s.h.ServeHTTP(rec, req)
	body := rec.Body.Bytes()
	if err := checkState(body, world, seq); err != nil {
		t.Fatalf("served state rejected: %v", err)
	}
	// Turn the first relay ID that reads 1… into 2….
	i := bytes.Index(body, []byte(`"forwarding":[1`))
	if i < 0 {
		t.Fatal("no forwarding set in /v1/state starts with a 1")
	}
	bad := append([]byte(nil), body...)
	bad[i+len(`"forwarding":[`)] = '2'
	if err := checkState(bad, world, seq); err == nil {
		t.Error("corrupted forwarding set in /v1/state was accepted")
	}
	if err := checkState(body, world, seq+1); err == nil {
		t.Error("wrong applied_seq in /v1/state was accepted")
	}
}

// TestTinyRuns runs every workload at a tiny size, untraced and traced,
// and requires a correct result that names every metric BENCHMARK.json
// declares for that mode.
func TestTinyRuns(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		for _, traced := range []bool{false, true} {
			want := cfg.EndToEnd
			if traced {
				want = cfg.PerLayer
			}
			r, err := execute(s, 3, 1, tinyScale, traced)
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			var out strings.Builder
			if err := r.print(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]metric
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line: %v", s.name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d errors=%v",
					s.name, traced, res.Correct, res.Attempted, res.Failed, r.errs)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", s.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", s.name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", s.name, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// fingerprint serialises the inputs canonically; equal seeds must give
// byte-equal fingerprints.
func (in *inputs) fingerprint() []byte {
	var buf bytes.Buffer
	put := func(nodes []network.Node) {
		for _, nd := range nodes {
			fmt.Fprintf(&buf, "%d %x %x %x\n", nd.ID, math.Float64bits(nd.Pos.X), math.Float64bits(nd.Pos.Y), math.Float64bits(nd.Radius))
		}
	}
	for _, nodes := range in.passes {
		put(nodes)
	}
	for k, start := range in.tickStarts {
		put(start)
		for _, mv := range in.ticks[k] {
			for _, m := range mv {
				fmt.Fprintf(&buf, "%d %x %x;", m.id, math.Float64bits(m.pos.X), math.Float64bits(m.pos.Y))
			}
			buf.WriteByte('\n')
		}
	}
	for _, si := range in.svc {
		for _, b := range append(append([][]byte(nil), si.joins...), si.writes...) {
			buf.Write(b)
			buf.WriteByte('\n')
		}
		for _, r := range si.reads {
			fmt.Fprintf(&buf, "%t %d\n", r.skyline, r.node)
		}
	}
	return buf.Bytes()
}
