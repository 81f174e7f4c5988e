package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"repro/internal/mldcsd"
)

// service is one in-process mldcsd, driven through Handler().ServeHTTP.
type service struct {
	srv *mldcsd.Server
	h   http.Handler
}

// post sends one delta batch and returns the status and the ack's seq.
// (Here and below, http.NewRequest cannot fail: the method is a constant
// and the target a fixed path with an integer query.)
func (s *service) post(body []byte) (int, uint64) {
	req, _ := http.NewRequest(http.MethodPost, "/v1/deltas", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, req)
	var ack mldcsd.IngestResponse
	if rec.Code == http.StatusAccepted && json.Unmarshal(rec.Body.Bytes(), &ack) != nil {
		return 0, 0
	}
	return rec.Code, ack.Seq
}

// waitApplied polls until the published snapshot covers seq.
func (s *service) waitApplied(seq uint64, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for s.srv.Latest().AppliedSeq < seq {
		if time.Now().After(deadline) {
			return fmt.Errorf("service: seq %d not applied within %v", seq, limit)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

// startService starts round k's mldcsd on the run's shared registry and
// posts the join batches until the last one is applied; the time this
// takes is the service half of setup_s.
func (r *run) startService(k int) *service {
	t0 := time.Now()
	srv := mldcsd.New(mldcsd.Config{Registry: r.reg})
	s := &service{srv: srv, h: srv.Handler()}
	var last uint64
	for _, body := range r.in.svc[k].joins {
		code, seq := s.post(body)
		if code != http.StatusAccepted {
			r.op(fmt.Errorf("service: join batch got %d", code), 0)
			continue
		}
		last = seq
	}
	r.op(s.waitApplied(last, time.Minute), 0)
	r.svc.setupS = append(r.svc.setupS, time.Since(t0).Seconds())
	return s
}

// fresh is one accepted write waiting to become visible.
type fresh struct {
	seq uint64
	due time.Time
}

// serviceAcc accumulates the service figures across rounds.
type serviceAcc struct {
	setupS                 samples
	freshMS, queryMS, late samples
	admitUS, fwdUS, skyUS  samples
	respBytes              samples
	rejected, visible      int
	lastSeq                uint64 // of the current round's service
}

// serviceWindow runs round k's open loop on s: the writes from one writer
// and the reads from nproc readers, each on a fixed schedule that does not
// wait for replies. Every latency is timed from the
// operation's scheduled send time, so a stall also charges the operations
// queued behind it. A watcher polls Latest() to time when each accepted
// batch becomes visible; the window ends when all of them are.
func (r *run) serviceWindow(s *service, k int) {
	si := &r.in.svc[k]
	a := &r.svc
	start := time.Now().Add(20 * time.Millisecond)
	var mu sync.Mutex // guards a and r's counters below
	a.lastSeq = 0
	pending := make(chan fresh, len(si.writes))
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		defer close(pending)
		for i, body := range si.writes {
			due := start.Add(time.Duration(float64(i) * si.interval.write * float64(time.Second)))
			time.Sleep(time.Until(due))
			t0 := time.Now()
			sp := r.trace.begin("mldcsd.POST /v1/deltas", 0)
			code, seq := s.post(body)
			r.trace.end(sp, map[string]any{"status": code})
			d := time.Since(t0)
			mu.Lock()
			a.late = append(a.late, ms(t0.Sub(due)))
			a.admitUS = append(a.admitUS, us(d))
			r.attempted++
			if code == http.StatusAccepted {
				a.lastSeq = seq
			} else {
				r.failed++
				r.errs = append(r.errs, fmt.Sprintf("service: delta batch %d got %d", i, code))
				if code == http.StatusTooManyRequests {
					a.rejected++
				}
			}
			mu.Unlock()
			if code == http.StatusAccepted {
				pending <- fresh{seq, due}
			}
		}
	}()

	wg.Add(1)
	go func() { // watcher
		defer wg.Done()
		var queue []fresh
		open := true
		for open || len(queue) > 0 {
			for drained := false; open && !drained; {
				select {
				case f, ok := <-pending:
					if !ok {
						open = false
						break
					}
					queue = append(queue, f)
				default:
					drained = true
				}
			}
			applied := s.srv.Latest().AppliedSeq
			now := time.Now()
			i := 0
			for ; i < len(queue) && queue[i].seq <= applied; i++ {
				mu.Lock()
				a.freshMS = append(a.freshMS, ms(now.Sub(queue[i].due)))
				a.visible++
				mu.Unlock()
			}
			queue = queue[i:]
			time.Sleep(100 * time.Microsecond)
		}
	}()

	readers := runtime.NumCPU()
	for k := 0; k < readers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for j := k; j < len(si.reads); j += readers {
				rd := si.reads[j]
				path, name := "/v1/forwarding", "mldcsd.GET /v1/forwarding"
				if rd.skyline {
					path, name = "/v1/skyline", "mldcsd.GET /v1/skyline"
				}
				req, _ := http.NewRequest(http.MethodGet, fmt.Sprintf("%s?node=%d", path, rd.node), nil)
				rec := httptest.NewRecorder()
				due := start.Add(time.Duration(float64(j) * si.interval.read * float64(time.Second)))
				time.Sleep(time.Until(due))
				t0 := time.Now()
				sp := r.trace.begin(name, 0)
				s.h.ServeHTTP(rec, req)
				r.trace.end(sp, map[string]any{"status": rec.Code})
				end := time.Now()
				ok := rec.Code == http.StatusOK && validRead(rec.Body.Bytes(), rd)
				mu.Lock()
				a.late = append(a.late, ms(t0.Sub(due)))
				a.queryMS = append(a.queryMS, ms(end.Sub(due)))
				if rd.skyline {
					a.skyUS = append(a.skyUS, us(end.Sub(t0)))
				} else {
					a.fwdUS = append(a.fwdUS, us(end.Sub(t0)))
				}
				a.respBytes = append(a.respBytes, float64(rec.Body.Len()))
				r.attempted++
				if !ok {
					r.failed++
					r.errs = append(r.errs, fmt.Sprintf("service: read %s of node %d got %d", path, rd.node, rec.Code))
				}
				mu.Unlock()
			}
		}(k)
	}
	wg.Wait()
}

// checkService drains round k's service and checks /v1/state byte for
// byte against the offline oracle.
func (r *run) checkService(s *service, k int) {
	a := &r.svc
	if err := s.waitApplied(a.lastSeq, time.Minute); err != nil {
		r.fail(err)
	}
	rec := httptest.NewRecorder()
	req, _ := http.NewRequest(http.MethodGet, "/v1/state", nil)
	s.h.ServeHTTP(rec, req)
	r.op(checkState(rec.Body.Bytes(), r.in.svc[k].final, a.lastSeq), 0)
}

// serviceSummary reports the service figures over every round.
func (r *run) serviceSummary() {
	a := &r.svc
	if a.visible != len(a.admitUS)-a.rejected {
		r.fail(fmt.Errorf("service: %d of %d accepted batches became visible", a.visible, len(a.admitUS)-a.rejected))
	}
	r.e2e.quantiles("freshness_ms", "ms", a.freshMS, 0.5)
	r.e2e.quantiles("query_ms", "ms", a.queryMS, 0.5)

	// The tails swing by more than a quarter between runs whenever a few
	// of them land in a slow spell of a shared machine, so they are
	// reported with the per-layer figures, which carry no bound.
	l := r.layer
	l.quantiles("freshness_ms", "ms", a.freshMS, 0.95)
	l.quantiles("query_ms", "ms", a.queryMS, 0.99)
	l.quantiles("mldcsd.admit_us", "us", a.admitUS, 0.5, 0.95)
	wait := r.reg.Timer(mldcsd.MetricIngestLag)
	apply := r.reg.Timer(mldcsd.MetricApplySeconds)
	l.add("mldcsd.queue_wait_ms.p50", "ms", 1000*wait.Quantile(0.5), int(wait.Count()))
	l.add("mldcsd.queue_wait_ms.p99", "ms", 1000*wait.Quantile(0.99), int(wait.Count()))
	l.add("mldcsd.apply_ms.p50", "ms", 1000*apply.Quantile(0.5), int(apply.Count()))
	l.add("mldcsd.apply_ms.p99", "ms", 1000*apply.Quantile(0.99), int(apply.Count()))
	co := r.reg.Histogram(mldcsd.MetricApplyCoalesced)
	l.add("mldcsd.coalesced_batches.mean", "batches", co.Mean(), int(co.Count()))
	l.add("mldcsd.rejected", "count", float64(a.rejected), len(a.admitUS))
	l.quantiles("mldcsd.forwarding_us", "us", a.fwdUS, 0.5, 0.99)
	l.quantiles("mldcsd.skyline_us", "us", a.skyUS, 0.5, 0.99)
	l.add("mldcsd.response_bytes.mean", "bytes", a.respBytes.mean(), len(a.respBytes))
	l.quantiles("generator.late_ms", "ms", a.late, 0.99)
	l.add("generator.late_ms.max", "ms", a.late.quantile(1), len(a.late))
	r.lateMS = map[string]float64{"p99": a.late.quantile(0.99), "max": a.late.quantile(1)}

	if r.trace != nil {
		// mldcsd.decode_us: DecodeBatch alone on the bodies the run sent,
		// five rounds so that p99 has ten samples beyond it.
		var dec samples
		for round := 0; round < 5; round++ {
			for _, si := range r.in.svc {
				for _, body := range si.writes {
					t0 := time.Now()
					_, err := mldcsd.DecodeBatch(bytes.NewReader(body), 4096)
					dec = append(dec, us(time.Since(t0)))
					r.op(err, 0)
				}
			}
		}
		l.quantiles("mldcsd.decode_us", "us", dec, 0.5, 0.99)
	}
}

// validRead checks that a 200 read answers for the node asked about.
func validRead(body []byte, rd read) bool {
	var head struct {
		Node int64 `json:"node"`
	}
	return json.Unmarshal(body, &head) == nil && head.Node == rd.node
}
