package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync/atomic"
	"time"

	hybridprng "repro"
	"repro/client"
	"repro/internal/baselines"
	"repro/internal/server"
	"repro/internal/substream"
)

// Workload parameters. The pool is randd's default generator set-up
// with the shard count pinned, so the on-demand, bulk and HTTP paths
// all run against the same 16 walkers on every machine.
const (
	poolShards       = 16
	hMin             = 4 // claimed feed min-entropy, bits/byte, as randd's default
	serveBulkWords   = 8192
	tenantKeys       = 8192
	tenantResident   = 256
	tenantPreDrawn   = 8 // words each tenant drew before the checkpoint
	tenantReqBytes   = 512
	tenantZipfS      = 1.1
	tenantSampleCap  = 8192 // words kept per sampled tenant for the reference check
	tenantSampleStep = 2    // sampled ranks are 0, 1, 3, 7, … (2^k − 1)
)

var workloadNames = []string{"inproc-mixed", "serve-loopback", "tenant-churn"}

func poolOptions(seed uint64) []hybridprng.Option {
	return []hybridprng.Option{
		hybridprng.WithShards(poolShards),
		hybridprng.WithFeed(hybridprng.FeedGlibc),
		hybridprng.WithHealthMonitoring(hMin),
		hybridprng.WithSeed(seed),
	}
}

// workload is one closed-loop traffic mix over one serving stack.
type workload interface {
	// boot builds the stack from its inputs and makes the first draw
	// on each caller's path: the set-up that setup_s times.
	boot() error
	// callers returns the closed-loop load goroutines; the first
	// times its unit draws (all do on tenant-churn).
	callers(traced bool) []caller
	// layerMetrics reads the per-layer figures for a finished phase.
	// before is the snapshot taken by mark when the phase started.
	layerMetrics(p *phaseResult, t *tracer, before any) map[string]float64
	mark() any
	// phaseFailures counts failed operations the callers could not
	// see since the mark, such as fetches a client retried.
	phaseFailures(before any) uint64
	// verify runs the checks that need the whole run's output and
	// returns how many operations they found wrong.
	verify() (uint64, error)
	close()
}

func newWorkload(name string, in *inputs, h *hook) workload {
	switch name {
	case "inproc-mixed":
		return &inprocMixed{seed: in.seed}
	case "serve-loopback":
		return &serveLoopback{seed: in.seed, hook: h}
	case "tenant-churn":
		return &tenantChurn{in: in, hook: h}
	}
	return nil
}

// inputs are the seeded inputs shared by every stack a run boots.
type inputs struct {
	seed uint64
	root uint64 // tenant derivation root

	keys      []string // tenant keys, index = key id
	paths     []string // each key's /v1/stream/{key}/bytes request path
	owned     [2][]int // key ids per caller, in popularity-rank order
	nodeState []byte   // tenant-churn checkpoint: pool + registry
}

func newInputs(seed uint64) *inputs {
	return &inputs{seed: seed, root: baselines.Mix64(seed ^ 0x7465_6e61_6e74_7321)}
}

// tenantInputs builds the tenant key set and the checkpoint randd's
// -state boot path restores: every key created, tenantPreDrawn words
// drawn from each, all but the resident cap parked.
func (in *inputs) tenantInputs() error {
	if in.nodeState != nil {
		return nil
	}
	in.tenantKeySet()
	reg, err := substream.New(substream.Config{
		RootSeed:    in.root,
		Feed:        hybridprng.FeedGlibc,
		HealthHMin:  hMin,
		MaxResident: tenantResident,
	})
	if err != nil {
		return err
	}
	var pre [tenantPreDrawn]uint64
	for _, k := range in.keys {
		if err := reg.Fill(k, pre[:]); err != nil {
			return fmt.Errorf("building tenant checkpoint: %w", err)
		}
	}
	regBlob, err := reg.MarshalBinary()
	if err != nil {
		return err
	}
	pool, err := hybridprng.NewPool(poolOptions(in.seed)...)
	if err != nil {
		return err
	}
	poolBlob, err := pool.MarshalBinary()
	if err != nil {
		return err
	}
	in.nodeState = server.EncodeNodeState(poolBlob, regBlob)
	return nil
}

// tenantKeySet makes the tenant keys, their request paths and their
// split between the two callers.
func (in *inputs) tenantKeySet() {
	if in.keys != nil {
		return
	}
	rng := rand.New(rand.NewSource(int64(in.seed)))
	in.keys = make([]string, tenantKeys)
	for i := range in.keys {
		in.keys[i] = fmt.Sprintf("tenant-%04d-%08x", i, rng.Uint32())
		in.paths = append(in.paths, fmt.Sprintf("/v1/stream/%s/bytes?n=%d", in.keys[i], tenantReqBytes))
	}
	perm := rng.Perm(tenantKeys)
	for r, id := range perm {
		in.owned[r%2] = append(in.owned[r%2], id)
	}
}

// tenantInputsFrom is tenantInputs with the checkpoint built by a
// child process running this program with -checkpoint, so the
// building registry's heap never counts towards this process's peak
// RSS. The checkpoint is checked when boots restore it and again by
// verify's reference comparison.
func (in *inputs) tenantInputsFrom(exe string) error {
	if in.nodeState != nil {
		return nil
	}
	in.tenantKeySet()
	cmd := exec.Command(exe, "-checkpoint", "-seed", strconv.FormatUint(in.seed, 10))
	cmd.Stderr = os.Stderr
	blob, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("building tenant checkpoint: %w", err)
	}
	in.nodeState = blob
	return nil
}

// restoreNode is randd's -state boot: decode the node container,
// restore the pool and the tenant registry.
func (in *inputs) restoreNode() (*hybridprng.Pool, *substream.Registry, error) {
	poolBlob, regBlob, err := server.DecodeNodeState(in.nodeState)
	if err != nil {
		return nil, nil, err
	}
	pool := new(hybridprng.Pool)
	if err := pool.UnmarshalBinary(poolBlob); err != nil {
		return nil, nil, err
	}
	reg, err := substream.Restore(regBlob, substream.Config{MaxResident: tenantResident})
	if err != nil {
		return nil, nil, err
	}
	return pool, reg, nil
}

// bulkClasses are inproc-mixed's bulk fill sizes in words with their
// repeat counts: the ring path, the striped direct path and a 1 MiB
// batched sweep.
var bulkClasses = [...]struct {
	name        string
	words, reps int
}{
	{"pool.fill32_ns_per_word", 32, 64},
	{"pool.fill1k_ns_per_word", 1024, 16},
	{"pool.fill128k_ns_per_word", 131072, 1},
}

type inprocMixed struct {
	seed uint64
	pool *hybridprng.Pool
	bulk []uint64
}

func (w *inprocMixed) boot() error {
	p, err := hybridprng.NewPool(poolOptions(w.seed)...)
	if err != nil {
		return err
	}
	w.bulk = make([]uint64, bulkClasses[len(bulkClasses)-1].words)
	v, err := p.Uint64()
	if err == nil && v == 0 {
		err = errors.New("first draw returned a zero word")
	}
	if err == nil {
		err = p.Fill(w.bulk[:bulkClasses[0].words])
	}
	w.pool = p
	return err
}

func (w *inprocMixed) callers(traced bool) []caller {
	onDemand := func(stop *atomic.Bool, r *callerResult) {
		for !stop.Load() {
			t0 := time.Now()
			v, err := w.pool.Uint64()
			r.draw(t0, time.Now(), 1, err == nil && r.check.Word(v))
		}
	}
	bulk := func(stop *atomic.Bool, r *callerResult) {
		for !stop.Load() {
			for c, class := range bulkClasses {
				buf := w.bulk[:class.words]
				for k := 0; k < class.reps && !stop.Load(); k++ {
					t0 := time.Now()
					err := w.pool.Fill(buf)
					t1 := time.Now()
					if traced {
						r.fillNs[c] += uint64(t1.Sub(t0))
						r.fillWords[c] += uint64(len(buf))
					}
					r.done(len(buf), err == nil && r.check.Words(buf))
				}
			}
		}
	}
	return []caller{onDemand, bulk}
}

func (w *inprocMixed) mark() any { return w.pool.Stats().Refills }

func (w *inprocMixed) layerMetrics(p *phaseResult, _ *tracer, before any) map[string]float64 {
	m := p.runtimeMetrics()
	bulk := p.callers[1]
	for c, class := range bulkClasses {
		m[class.name] = float64(bulk.fillNs[c]) / float64(bulk.fillWords[c])
	}
	refills := w.pool.Stats().Refills - before.(uint64)
	m["pool.refills_per_kword"] = float64(refills) / (float64(p.words) / 1e3)
	m["pool.uint64_stall_frac"] = float64(p.callers[0].stallNs) / float64(p.elapsed)
	return m
}

func (w *inprocMixed) phaseFailures(any) uint64 { return 0 }
func (w *inprocMixed) verify() (uint64, error)  { return 0, nil }
func (w *inprocMixed) close()                   {}

// stack is a server on a loopback listener.
type stack struct {
	srv   *server.Server
	hs    *http.Server
	base  string
	done  chan error
	dials atomic.Int64
}

// startStack serves srv on a loopback listener. wrap, when non-nil,
// is a middleware the tests use to corrupt responses.
func startStack(srv *server.Server, h *hook, wrap func(http.Handler) http.Handler) (*stack, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	handler := srv.Handler()
	if wrap != nil {
		handler = wrap(handler)
	}
	if h != nil {
		handler = h.Middleware(handler)
	}
	s := &stack{
		srv:  srv,
		hs:   &http.Server{Handler: handler},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// transport returns a transport capped at conns connections whose
// dials are counted, wrapped by the hook on traced runs.
func (s *stack) transport(conns int, h *hook) (*http.Transport, http.RoundTripper) {
	var d net.Dialer
	tr := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			s.dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	if h != nil {
		return tr, h.RoundTripper(tr)
	}
	return tr, tr
}

// stop shuts the server down and waits for Serve to return.
func (s *stack) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	<-s.done
}

// serverErrors sums the server's error, shed, timeout and panic
// counters from its metrics map.
func (s *stack) serverErrors() float64 {
	var m map[string]json.RawMessage
	if err := json.Unmarshal([]byte(s.srv.MetricsVar().String()), &m); err != nil {
		return math.NaN() // reported as an error by withUnits
	}
	total := 0.0
	for _, k := range []string{"request_errors", "requests_shed", "request_timeouts", "panics_recovered"} {
		var v float64
		_ = json.Unmarshal(m[k], &v) // absent counters read as 0
		total += v
	}
	return total
}

type serveLoopback struct {
	seed uint64
	hook *hook

	st             *stack
	trs            []*http.Transport
	onDemand, bulk *client.Client
	buf            []uint64
}

func (w *serveLoopback) boot() error {
	pool, err := hybridprng.NewPool(poolOptions(w.seed)...)
	if err != nil {
		return err
	}
	srv, err := server.New(pool, server.Options{})
	if err != nil {
		return err
	}
	if w.st, err = startStack(srv, w.hook, nil); err != nil {
		return err
	}
	newClient := func(i int) (*client.Client, error) {
		tr, rt := w.st.transport(1, w.hook)
		w.trs = append(w.trs, tr)
		return client.New(client.Options{
			Endpoints:  []string{w.st.base},
			HTTPClient: &http.Client{Transport: rt},
			Seed:       w.seed + uint64(i),
		})
	}
	if w.onDemand, err = newClient(0); err != nil {
		return err
	}
	if w.bulk, err = newClient(1); err != nil {
		return err
	}
	w.buf = make([]uint64, serveBulkWords)
	v, err := w.onDemand.Uint64()
	if err == nil && v == 0 {
		err = errors.New("first draw returned a zero word")
	}
	if err == nil {
		err = w.bulk.Fill(w.buf)
	}
	return err
}

func (w *serveLoopback) callers(bool) []caller {
	onDemand := func(stop *atomic.Bool, r *callerResult) {
		for !stop.Load() {
			t0 := time.Now()
			v, err := w.onDemand.Uint64()
			r.draw(t0, time.Now(), 1, err == nil && r.check.Word(v))
		}
	}
	bulk := func(stop *atomic.Bool, r *callerResult) {
		for !stop.Load() {
			err := w.bulk.Fill(w.buf)
			r.done(len(w.buf), err == nil && r.check.Words(w.buf))
		}
	}
	return []caller{onDemand, bulk}
}

type clientMark struct {
	od, bulk client.Stats
}

func (w *serveLoopback) mark() any {
	return clientMark{w.onDemand.Stats(), w.bulk.Stats()}
}

func endpointFailures(st client.Stats) uint64 {
	var n uint64
	for _, e := range st.Endpoints {
		n += e.Failures
	}
	return n
}

// phaseFailures counts the failed fetches (errors, non-200
// responses, short bodies) the clients absorbed by retrying since
// the mark; they are failed operations even though no draw failed.
func (w *serveLoopback) phaseFailures(before any) uint64 {
	b := before.(clientMark)
	return endpointFailures(w.onDemand.Stats()) - endpointFailures(b.od) +
		endpointFailures(w.bulk.Stats()) - endpointFailures(b.bulk)
}

func (w *serveLoopback) layerMetrics(p *phaseResult, t *tracer, before any) map[string]float64 {
	m := p.runtimeMetrics()
	for k, v := range t.wireMetrics() {
		m[k] = v
	}
	b := before.(clientMark)
	od, bulk := w.onDemand.Stats(), w.bulk.Stats()
	// Useful work is counted over the stack's life, not the phase:
	// a phase starts with rings filled before it.
	drawn := float64(od.Draws + bulk.Draws)
	fetched := float64(w.hook.fetched.Load()) / 8
	m["client.stall_frac"] = float64(p.callers[0].stallNs) / float64(p.elapsed)
	if blocks := od.Blocks - b.od.Blocks; blocks > 0 {
		m["client.stalls_per_block"] = float64(od.Stalls-b.od.Stalls) / float64(blocks)
	}
	if words := t.meanFetchWords(); words > 0 {
		m["client.block_kwords"] = words / 1e3
	}
	m["client.useful_frac"] = drawn / fetched
	m["client.retries"] = float64(od.Retries - b.od.Retries + bulk.Retries - b.bulk.Retries)
	m["wire.dials"] = float64(w.st.dials.Load())
	m["server.errors"] = w.st.serverErrors()
	return m
}

func (w *serveLoopback) verify() (uint64, error) { return 0, nil }

func (w *serveLoopback) close() {
	for _, c := range []*client.Client{w.onDemand, w.bulk} {
		if c != nil {
			c.Close()
		}
	}
	if w.st != nil {
		w.st.stop()
	}
	for _, tr := range w.trs {
		tr.CloseIdleConnections()
	}
}

// tenantSample records, in order, the words one sampled tenant key
// delivered, for the bitwise reference check.
type tenantSample struct {
	key   string
	words []uint64
}

type tenantChurn struct {
	in   *inputs
	hook *hook
	wrap func(http.Handler) http.Handler // response corruption, tests only

	st      *stack
	tr      *http.Transport
	hc      *http.Client
	reg     *substream.Registry
	zipf    [2]*rand.Zipf
	samples []*tenantSample // by key id; nil for unsampled keys
}

func (w *tenantChurn) boot() error {
	in := w.in
	pool, reg, err := in.restoreNode()
	if err != nil {
		return err
	}
	w.reg = reg
	srv, err := server.New(pool, server.Options{Substreams: reg})
	if err != nil {
		return err
	}
	if w.st, err = startStack(srv, w.hook, w.wrap); err != nil {
		return err
	}
	var rt http.RoundTripper
	w.tr, rt = w.st.transport(2, w.hook)
	w.hc = &http.Client{Transport: rt}
	resp, err := w.hc.Get(w.st.base + "/healthz")
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

// draw makes one keyed request and decodes its words into dst. It
// reports false for a transport error, a non-200 status or a body of
// the wrong length.
func (w *tenantChurn) draw(url string, body []byte, dst []uint64) bool {
	resp, err := w.hc.Get(url)
	if err != nil {
		return false
	}
	n, err := io.ReadFull(resp.Body, body[:tenantReqBytes])
	extra, _ := resp.Body.Read(body[tenantReqBytes:])
	resp.Body.Close()
	if err != nil || extra != 0 || n != tenantReqBytes || resp.StatusCode != http.StatusOK {
		return false
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(body[8*i:])
	}
	return true
}

// callers draws keys from one seeded Zipf sequence per caller; the
// sequences continue across phases, so a run's key order depends
// only on the seed.
func (w *tenantChurn) callers(bool) []caller {
	in := w.in
	if w.samples == nil {
		w.samples = make([]*tenantSample, len(in.keys))
		for c := range w.zipf {
			src := rand.New(rand.NewSource(int64(in.seed) + int64(c) + 1))
			w.zipf[c] = rand.NewZipf(src, tenantZipfS, 1, uint64(len(in.owned[c])-1))
			for r := 0; r < len(in.owned[c]); r = r*tenantSampleStep + 1 {
				id := in.owned[c][r]
				w.samples[id] = &tenantSample{key: in.keys[id]}
			}
		}
	}
	cs := make([]caller, len(w.zipf))
	for c := range cs {
		owned, zipf := w.in.owned[c], w.zipf[c]
		cs[c] = func(stop *atomic.Bool, r *callerResult) {
			body := make([]byte, tenantReqBytes+1)
			words := make([]uint64, tenantReqBytes/8)
			for !stop.Load() {
				id := owned[zipf.Uint64()]
				t0 := time.Now()
				ok := w.draw(w.st.base+in.paths[id], body, words)
				t1 := time.Now()
				ok = ok && r.check.Words(words)
				r.draw(t0, t1, len(words), ok)
				if !ok {
					continue
				}
				if s := w.samples[id]; s != nil && len(s.words) < tenantSampleCap {
					s.words = append(s.words, words...)
				}
			}
		}
	}
	return cs
}

func (w *tenantChurn) mark() any { return w.reg.Stats() }

func (w *tenantChurn) layerMetrics(p *phaseResult, t *tracer, before any) map[string]float64 {
	m := p.runtimeMetrics()
	for k, v := range t.wireMetrics() {
		m[k] = v
	}
	b, a := before.(substream.Stats), w.reg.Stats()
	// Every key is in the checkpoint, so each admission to the
	// resident set is an unpark: the evictions it caused plus the
	// growth of the resident set.
	unparks := float64(a.Evictions-b.Evictions) + float64(a.Resident-b.Resident)
	m["substream.hit_frac"] = 1 - unparks/float64(p.ops)
	m["substream.unparks_per_kreq"] = unparks / (float64(p.ops) / 1e3)
	m["wire.dials"] = float64(w.st.dials.Load())
	m["server.errors"] = w.st.serverErrors()
	return m
}

func (w *tenantChurn) phaseFailures(any) uint64 { return 0 }

func (w *tenantChurn) verify() (uint64, error) {
	var failed uint64
	for _, s := range w.samples {
		if s == nil || len(s.words) == 0 {
			continue
		}
		i, err := verifyTenant(w.in.root, s.key, tenantPreDrawn, s.words)
		if err != nil {
			return failed, err
		}
		if i >= 0 {
			failed++
		}
	}
	return failed, nil
}

func (w *tenantChurn) close() {
	if w.st != nil {
		w.st.stop()
	}
	if w.tr != nil {
		w.tr.CloseIdleConnections()
	}
}
