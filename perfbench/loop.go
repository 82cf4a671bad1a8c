package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// stallNs is the draw latency above which a draw counts as a stall
// for the *.stall_frac metrics: far beyond a ring hit (~100 ns) and
// beyond a single ring refill, so only waits on another caller's
// bulk work or on the network count.
const stallNs = 10_000

// callerResult is what one load goroutine measured in one phase.
// Not safe for concurrent use; read it after the goroutine returned.
type callerResult struct {
	check   Checker
	ops     uint64
	failed  uint64
	words   uint64
	stallNs uint64 // time spent in draws longer than stallNs
	hist    Hist   // unit-draw latency in ns

	fillNs, fillWords [len(bulkClasses)]uint64 // per bulk class, traced runs only
}

// done accounts one operation that returned n words; ok is false when
// it failed or a check rejected its words.
func (r *callerResult) done(n int, ok bool) {
	r.ops++
	if !ok {
		r.failed++
		return
	}
	r.words += uint64(n)
}

// draw is done for a unit draw that ran from t0 to t1, whose latency
// it also records.
func (r *callerResult) draw(t0, t1 time.Time, n int, ok bool) {
	dt := uint64(t1.Sub(t0))
	r.hist.Record(dt)
	if dt > stallNs {
		r.stallNs += dt
	}
	r.done(n, ok)
}

// phaseResult is one closed-loop phase: its callers plus the process
// counters read around it.
type phaseResult struct {
	callers []*callerResult
	elapsed time.Duration
	cpu     time.Duration // process CPU time (user + sys)
	alloc   uint64        // bytes allocated on the heap
	gcFrac  float64       // GC share of the runtime's CPU time

	ops, failed, words uint64
	check              Checker
}

// caller is one closed-loop load goroutine: it issues operations back
// to back until stop is set, each waiting for the previous one.
type caller func(stop *atomic.Bool, r *callerResult)

type counters struct {
	cpu       time.Duration
	alloc     uint64
	gc, total float64
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuMetrics)
	return counters{
		cpu:   processCPU(),
		alloc: ms.TotalAlloc,
		gc:    cpuMetrics[0].Value.Float64(),
		total: cpuMetrics[1].Value.Float64(),
	}
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// closedLoop runs the callers concurrently for d, then stops them and
// waits for each to finish its operation in flight. The phase's
// elapsed time runs until the last caller has returned, so every
// counted word falls inside it.
func closedLoop(d time.Duration, callers ...caller) *phaseResult {
	runtime.GC() // every phase starts from a collected heap
	before := readCounters()
	start := time.Now()
	var stop atomic.Bool
	var wg sync.WaitGroup
	p := &phaseResult{callers: make([]*callerResult, len(callers))}
	for i, f := range callers {
		r := new(callerResult)
		p.callers[i] = r
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(&stop, r)
		}()
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	p.elapsed = time.Since(start)
	after := readCounters()
	p.cpu = after.cpu - before.cpu
	p.alloc = after.alloc - before.alloc
	if dt := after.total - before.total; dt > 0 {
		p.gcFrac = (after.gc - before.gc) / dt
	}
	for _, r := range p.callers {
		p.ops += r.ops
		p.failed += r.failed
		p.words += r.words
		p.check.Merge(&r.check)
	}
	return p
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// endToEnd computes the end-to-end metrics over the whole measured
// phase: the draw figures from the unit draws of every caller, merged
// untrimmed, so a stall anywhere in the phase moves them.
func (p *phaseResult) endToEnd() map[string]float64 {
	var h Hist
	for _, r := range p.callers {
		h.Merge(&r.hist)
	}
	return map[string]float64{
		"words_per_s":     p.wordsPerSec(),
		"cpu_ns_per_word": float64(p.cpu) / float64(p.words),
		"draw_p50_ns":     h.Quantile(0.50),
		"draw_p99_ns":     h.Quantile(0.99),
		"draw_mean_ns":    h.Mean(),
	}
}

// wordsPerSec is the phase's delivery rate.
func (p *phaseResult) wordsPerSec() float64 { return float64(p.words) / p.elapsed.Seconds() }

// runtimeMetrics are the Go runtime's per-layer figures for a phase.
func (p *phaseResult) runtimeMetrics() map[string]float64 {
	return map[string]float64{
		"runtime.alloc_b_per_word": float64(p.alloc) / float64(p.words),
		"runtime.gc_cpu_frac":      p.gcFrac,
	}
}
