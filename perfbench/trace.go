package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// spanHeader carries a request's span ID from the benchmark's
// RoundTripper (the wire span) to its middleware around the server's
// Handler (the handler span), so the two can be linked as parent and
// child.
const spanHeader = "X-Bench-Span"

// keptSpans bounds how many linked spans a run keeps for the trace
// file; the aggregates below cover every span regardless.
const keptSpans = 4096

// Span is one recorded interval. Times are nanoseconds since the
// tracer started.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// pair is one request's wire span and handler span while either is
// still open.
type pair struct {
	wire, handler Span
	haveW, haveH  bool
}

// tracer records wire and handler spans for one traced phase. A wire
// span runs from RoundTrip until the response body reaches EOF or is
// closed; its handler span is the server's ServeHTTP for the same
// request. Self time is the wire span minus the part of it the
// handler span covers: client and server HTTP framing, the loopback
// socket and scheduling.
type tracer struct {
	base time.Time
	ids  atomic.Uint64

	mu      sync.Mutex
	open    map[uint64]*pair // guarded by mu
	kept    []Span           // guarded by mu
	dropped uint64           // linked spans not kept; guarded by mu

	// Aggregates over every linked pair, guarded by mu.
	fetch, handler, self Hist // durations in ns
	wireNs, handlerNs    uint64
	overlapNs            uint64
	bytes                uint64
	requests             uint64
	unlinked             uint64 // wire spans that ended without a handler span
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), open: make(map[uint64]*pair)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// hook is installed around the client transports and the server
// handler of a traced run's stacks. While no tracer is current it
// passes requests straight through, so one stack serves both the
// untraced baseline phase and the traced phase.
type hook struct {
	cur     atomic.Pointer[tracer]
	fetched atomic.Uint64 // response body bytes read since the stack booted
}

// RoundTripper wraps base so every request made while a tracer is
// current opens a wire span and carries its ID to the server.
func (h *hook) RoundTripper(base http.RoundTripper) http.RoundTripper {
	return roundTripper{h: h, base: base}
}

type roundTripper struct {
	h    *hook
	base http.RoundTripper
}

func (rt roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	t := rt.h.cur.Load()
	if t == nil {
		resp, err := rt.base.RoundTrip(req)
		if err == nil {
			resp.Body = &countBody{rc: resp.Body, n: &rt.h.fetched}
		}
		return resp, err
	}
	id := t.ids.Add(1)
	start := t.now()
	r2 := req.Clone(req.Context())
	r2.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	resp, err := rt.base.RoundTrip(r2)
	if err != nil {
		t.endWire(id, start, 0)
		return nil, err
	}
	resp.Body = &spanBody{t: t, id: id, start: start, rc: &countBody{rc: resp.Body, n: &rt.h.fetched}}
	return resp, nil
}

// countBody adds the bytes read through it to n.
type countBody struct {
	rc io.ReadCloser
	n  *atomic.Uint64
}

func (b *countBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n.Add(uint64(n))
	return n, err
}

func (b *countBody) Close() error { return b.rc.Close() }

// spanBody ends the wire span when the body is drained or closed.
type spanBody struct {
	t     *tracer
	id    uint64
	start int64
	rc    io.ReadCloser
	n     int64
	done  bool
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n += int64(n)
	if err == io.EOF && !b.done {
		b.done = true
		b.t.endWire(b.id, b.start, b.n)
	}
	return n, err
}

func (b *spanBody) Close() error {
	if !b.done {
		b.done = true
		b.t.endWire(b.id, b.start, b.n)
	}
	return b.rc.Close()
}

// Middleware wraps the server's handler so each request carrying a
// span ID records its handler span in the current tracer.
func (h *hook) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := h.cur.Load()
		id, err := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		if t == nil || err != nil {
			next.ServeHTTP(w, r)
			return
		}
		start := t.now()
		next.ServeHTTP(w, r)
		t.endHandler(id, start)
	})
}

func (t *tracer) endWire(id uint64, start, n int64) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.pairLocked(id)
	p.wire = Span{ID: id, Name: "wire", Start: start, End: end, Bytes: n}
	p.haveW = true
	t.finishLocked(id, p)
}

func (t *tracer) endHandler(id uint64, start int64) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.pairLocked(id)
	p.handler = Span{ID: id | 1<<63, Parent: id, Name: "handler", Start: start, End: end}
	p.haveH = true
	t.finishLocked(id, p)
}

func (t *tracer) pairLocked(id uint64) *pair {
	p := t.open[id]
	if p == nil {
		p = new(pair)
		t.open[id] = p
	}
	return p
}

// finishLocked folds a pair into the aggregates once both of its
// spans have ended. A wire span that failed before reaching the
// server never gets a handler span; it stays open and is counted as
// unlinked when the trace is closed.
func (t *tracer) finishLocked(id uint64, p *pair) {
	if !p.haveW || !p.haveH {
		return
	}
	delete(t.open, id)
	w, h := p.wire, p.handler
	wire := w.End - w.Start
	lo, hi := max(w.Start, h.Start), min(w.End, h.End)
	overlap := max(hi-lo, 0)
	t.fetch.Record(uint64(wire))
	t.handler.Record(uint64(h.End - h.Start))
	t.self.Record(uint64(wire - overlap))
	t.wireNs += uint64(wire)
	t.handlerNs += uint64(h.End - h.Start)
	t.overlapNs += uint64(overlap)
	t.bytes += uint64(w.Bytes)
	t.requests++
	if len(t.kept) < keptSpans {
		t.kept = append(t.kept, w, h)
	} else {
		t.dropped++
	}
}

// close counts spans that never linked. Call after the traced load
// has stopped.
func (t *tracer) close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.unlinked += uint64(len(t.open))
	t.open = make(map[uint64]*pair)
}

// meanFetchWords is the mean response body size in words.
func (t *tracer) meanFetchWords() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.requests == 0 {
		return 0
	}
	return float64(t.bytes) / 8 / float64(t.requests)
}

// wireMetrics derives the wire and server per-layer metrics from the
// linked spans. It returns nil when no request was traced.
func (t *tracer) wireMetrics() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.requests == 0 {
		return nil
	}
	words := float64(t.bytes) / 8
	return map[string]float64{
		"wire.fetch_ms_p50":          t.fetch.Quantile(0.5) / 1e6,
		"wire.fetch_ms_p99":          t.fetch.Quantile(0.99) / 1e6,
		"wire.mb_per_s":              float64(t.bytes) / 1e6 / (float64(t.wireNs) / 1e9),
		"wire.self_frac":             float64(t.wireNs-t.overlapNs) / float64(t.wireNs),
		"wire.self_us_p50":           t.self.Quantile(0.5) / 1e3,
		"server.handler_ns_per_word": float64(t.handlerNs) / words,
		"server.handler_us_p50":      t.handler.Quantile(0.5) / 1e3,
		"server.handler_us_p99":      t.handler.Quantile(0.99) / 1e3,
	}
}

// traceFile is what a traced run writes when it ends: the run's
// metadata, the per-layer metrics of every traced phase, and a
// bounded sample of linked spans per phase.
type traceFile struct {
	Meta    map[string]any        `json:"meta"`
	Metrics map[string]float64    `json:"metrics"`
	Sources map[string]string     `json:"sources"`
	Phases  map[string]tracePhase `json:"phases"`
}

type tracePhase struct {
	Requests uint64 `json:"requests"`
	Dropped  uint64 `json:"spans_not_kept"`
	Unlinked uint64 `json:"unlinked_wire_spans"`
	Spans    []Span `json:"spans"`
}

func (t *tracer) phase() tracePhase {
	t.mu.Lock()
	defer t.mu.Unlock()
	return tracePhase{Requests: t.requests, Dropped: t.dropped, Unlinked: t.unlinked, Spans: t.kept}
}

func writeTraceFile(path string, f traceFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
