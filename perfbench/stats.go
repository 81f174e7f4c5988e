package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// samples is a list of observations in one unit.
type samples []float64

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank q-quantile: the smallest value with at
// least a q share of the samples at or below it.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	v := s.sorted()
	i := int(math.Ceil(q*float64(len(v)))) - 1
	return v[min(max(i, 0), len(v)-1)]
}

// beyond counts the samples ranked above the q-quantile; the tails this
// benchmark reports are chosen so that at least ten lie beyond them.
func (s samples) beyond(q float64) int {
	return len(s) - max(int(math.Ceil(q*float64(len(s)))), 1)
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t / float64(len(s))
}

func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// metric is one reported figure. n is the sample count behind it (1 for
// a single reading).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
	// thin marks a tail with fewer than ten samples beyond it.
	thin bool
}

// report collects a run's metrics in the order they were added.
type report struct {
	names   []string
	metrics map[string]metric
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) add(name, unit string, v float64, n int) {
	if _, dup := r.metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit, n: n}
}

// quantiles adds name.pXX for each q, marking a tail thin when fewer
// than ten samples lie beyond it.
func (r *report) quantiles(name, unit string, s samples, qs ...float64) {
	for _, q := range qs {
		key := fmt.Sprintf("%s.p%02.0f", name, q*100)
		r.add(key, unit, s.quantile(q), len(s))
		if q > 0.5 && s.beyond(q) < 10 {
			m := r.metrics[key]
			m.thin = true
			r.metrics[key] = m
		}
	}
}

// span is one traced interval around a call into a layer.
type span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent"`
	Name   string         `json:"name"`
	Start  time.Duration  `json:"start_ns"`
	End    time.Duration  `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// tracer keeps spans in memory; a nil tracer records nothing, so the
// untraced run pays one nil check per call site. The service's client
// goroutines share one tracer, hence the lock.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int, attrs map[string]any) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Attrs = attrs
}

// selfTimes sums, per span name, each span's duration minus the part its
// direct children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(t.spans)+1)
	for _, sp := range t.spans {
		if sp.Parent > 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	out := map[string]time.Duration{}
	for _, sp := range t.spans {
		out[sp.Name] += sp.End - sp.Start - child[sp.ID]
	}
	return out
}

// write stores the spans as JSON lines, then one line of self times.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	self := map[string]float64{}
	for name, d := range t.selfTimes() {
		self[name] = ms(d)
	}
	if err := enc.Encode(map[string]any{"self_ms": self}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
