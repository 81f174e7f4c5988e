// Command perfbench is the repository's benchmark. One run measures one
// workload end to end — fresh-engine Compute passes, a closed loop of
// Update ticks, and an open loop of deltas and reads against an
// in-process mldcsd — and checks every output against the sequential
// oracle. With --trace 1 it instead reports per-layer figures, from spans
// around its own calls and from replaying the layers below engine.Compute.
//
// Usage (from the repository root, through perfbench/run.sh, which builds
// it first):
//
//	bash perfbench/run.sh --workload uniform-mobility --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. The lines before it list every metric with its unit
// and sample count, and the run record.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// rounds is how many slices each phase is cut into.
const rounds = 5

// outDir receives each run's printed report and, when traced, its spans;
// run.sh keeps every build and run product under .bench_build.
const outDir = ".bench_build/perfbench"

// run is one benchmark run's state and accumulated results.
type run struct {
	spec  spec
	plan  plan
	in    *inputs
	trace *tracer // nil in the untraced run

	e2e, layer *report
	reg        *obs.Registry // shared by every round's mldcsd
	attempted  int
	failed     int
	errs       []string
	record     record
	lateMS     map[string]float64 // generator lateness: p99 and max

	eng engineAcc
	svc serviceAcc

	// Engine pool counters over every timed pass and tick.
	imbalance samples
	steals    int64
	fallbacks int64

	// Replay accumulators (traced run only).
	buildMS, gatherMS, selfMS, share samples
	kernelUS, checkUS                samples
	links, candidates                int64
	disks, arcs, cover, sets         int64
	invariantFailures                int
}

// engineAcc accumulates the engine phases across rounds.
type engineAcc struct {
	rate, seqMS, untracedMS, tracedMS samples
	hits, probes                      int64
	wants                             []answer // oracle per pass deployment

	setupS                    samples // per-round tick engine set-up
	tickEngine                *engine.Engine
	tickMS                    samples
	dirty, repaired, repairFB int64
}

// op books one operation: err or a non-zero mismatch count fails it.
func (r *run) op(err error, mismatched int) {
	r.attempted++
	if err != nil || mismatched > 0 {
		r.failed++
		if err == nil {
			err = fmt.Errorf("%d nodes differ from the oracle", mismatched)
		}
		r.errs = append(r.errs, err.Error())
	}
}

// fail books an error outside any counted operation (a failed check).
func (r *run) fail(err error) { r.op(err, 0) }

// record is the run's provenance, printed beside the metrics.
type record struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	NumCPU     int                `json:"num_cpu"`
	Gomaxprocs int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	Commit     string             `json:"commit"`
	Nodes      int                `json:"nodes"`
	WallS      float64            `json:"wall_s"`
	Samples    map[string]int     `json:"samples"`
	LateMS     map[string]float64 `json:"generator_late_ms"`
	Errors     []string           `json:"errors,omitempty"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}

// execute performs one run and returns its reports.
func execute(s spec, seed int64, seconds, scale float64, traced bool) (*run, error) {
	r := &run{spec: s, plan: s.plan(seconds, scale), e2e: newReport(), layer: newReport(), reg: obs.NewRegistry()}
	if traced {
		r.trace = newTracer()
	}
	in, err := generate(s, r.plan, seed)
	if err != nil {
		return nil, err
	}
	r.in = in
	wall := time.Now()

	r.passOracles()

	// The phases run interleaved in rounds, so that a disturbance of a
	// few seconds on a shared machine touches a slice of every metric's
	// samples rather than the whole of one. Each round sets up its own tick
	// engine and its own service, on deployments of its own, so that one
	// deployment's cost does not decide a metric either.
	var heap samples
	for k := 0; k < rounds; k++ {
		r.passRound(k*r.plan.passes/rounds, (k+1)*r.plan.passes/rounds)
		r.tickRound(k)
		svc := r.startService(k)
		r.serviceWindow(svc, k)
		r.checkService(svc, k)
		if err := svc.srv.Close(); err != nil {
			r.fail(err)
		}
		if k == rounds-1 {
			r.engineSummary()
		}
		// live_heap_mb: what the round's tick engine and drained service
		// hold, as the live heap with them less the live heap without.
		with := liveHeapMiB()
		runtime.KeepAlive(svc)
		r.eng.tickEngine = nil
		heap = append(heap, with-liveHeapMiB())
	}
	r.e2e.add("setup_s", "s", r.eng.setupS.quantile(0.5)+r.svc.setupS.quantile(0.5), len(r.eng.setupS))
	r.e2e.add("live_heap_mb", "MiB", heap.quantile(0.5), len(heap))
	r.serviceSummary()
	if traced {
		r.layerSummary()
	}

	r.record = record{
		Workload: s.name, Seed: seed, Seconds: seconds, Trace: traced,
		NumCPU: runtime.NumCPU(), Gomaxprocs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(), Nodes: r.plan.nodes,
		WallS: time.Since(wall).Seconds(), Samples: map[string]int{},
		LateMS: r.lateMS, Errors: r.errs,
	}
	return r, nil
}

// shown is the report the run prints: end-to-end untraced, per-layer
// traced.
func (r *run) shown() *report {
	if r.trace != nil {
		return r.layer
	}
	return r.e2e
}

func (r *run) print(w io.Writer) error {
	rep := r.shown()
	for _, name := range rep.names {
		m := rep.metrics[name]
		r.record.Samples[name] = m.n
		fmt.Fprintf(w, "%-32s %14.6g %-8s n=%d\n", name, m.Value, m.Unit, m.n)
		if m.thin {
			fmt.Fprintf(os.Stderr, "perfbench: %s rests on %d samples, fewer than ten beyond it\n", name, m.n)
		}
	}
	rec, err := json.Marshal(map[string]any{"record": r.record})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", rec)
	out, err := json.Marshal(result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: rep.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

func mainErr() error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+names())
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "run length; operation counts scale with it")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	s, err := specByName(*workload)
	if err != nil {
		return err
	}
	if !(*seconds > 0) || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	r, err := execute(s, *seed, *seconds, 1, *trace == 1)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", s.name, *seed, *trace))
	if r.trace != nil {
		if err := r.trace.write(stem + ".spans.jsonl"); err != nil {
			return err
		}
	}
	var buf strings.Builder
	if err := r.print(&buf); err != nil {
		return err
	}
	if err := os.WriteFile(stem+".txt", []byte(buf.String()), 0o644); err != nil {
		return err
	}
	_, err = io.WriteString(os.Stdout, buf.String())
	return err
}

func names() string {
	var out []string
	for _, s := range specs {
		out = append(out, s.name)
	}
	return strings.Join(out, ", ")
}
