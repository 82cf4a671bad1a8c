// Command perfbench is the repository's end-to-end benchmark. It
// boots one serving stack per workload from seeded inputs, drives it
// with closed-loop callers for a fixed time, checks every delivered
// word, and prints the metrics as one JSON object on the last line of
// standard output. With -trace 1 it instead measures the per-layer
// metrics: a ladder of the feed, core and state layers, then a traced
// phase of every workload with spans recorded at the wire/handler
// boundary. README.md in this directory defines every metric.
//
//	go build -o perfbench . && ./perfbench -workload inproc-mixed -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// bootReps is how many times each workload boots in one run; setup_s
// is the median. The first boot of a process pays one-off costs
// (page faults, lazily built tables) that later boots do not.
var bootReps = map[string]int{
	"inproc-mixed":   41,
	"serve-loopback": 31,
	"tenant-churn":   15,
}

// warmup runs untimed before the measured phase so client block
// sizes, the tenant LRU and the heap reach their steady state.
const warmup = time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// units of every metric the benchmark reports.
var units = map[string]string{
	"setup_s":         "s",
	"words_per_s":     "1/s",
	"cpu_ns_per_word": "ns",
	"draw_p50_ns":     "ns",
	"draw_p99_ns":     "ns",
	"draw_mean_ns":    "ns",
	"peak_rss_mb":     "MB",

	"feed.ns_per_word":           "ns",
	"core.batch16_ns_per_word":   "ns",
	"core.scalar_ns_per_word":    "ns",
	"core.init_us":               "us",
	"pool.fill32_ns_per_word":    "ns",
	"pool.fill1k_ns_per_word":    "ns",
	"pool.fill128k_ns_per_word":  "ns",
	"pool.refills_per_kword":     "1/kword",
	"pool.uint64_stall_frac":     "ratio",
	"client.stall_frac":          "ratio",
	"client.stalls_per_block":    "ratio",
	"client.block_kwords":        "kword",
	"client.useful_frac":         "ratio",
	"client.retries":             "count",
	"wire.fetch_ms_p50":          "ms",
	"wire.fetch_ms_p99":          "ms",
	"wire.mb_per_s":              "MB/s",
	"wire.self_frac":             "ratio",
	"wire.self_us_p50":           "us",
	"wire.dials":                 "count",
	"server.handler_ns_per_word": "ns",
	"server.handler_us_p50":      "us",
	"server.handler_us_p99":      "us",
	"server.errors":              "count",
	"substream.hit_frac":         "ratio",
	"substream.unparks_per_kreq": "1/kreq",
	"state.park_us":              "us",
	"state.unpark_us":            "us",
	"state.restore_ms":           "ms",
	"runtime.alloc_b_per_word":   "B/word",
	"runtime.gc_cpu_frac":        "ratio",
	"trace.overhead_frac":        "ratio",
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name     = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed     = flag.Uint64("seed", 1, "seed for every generated input")
		seconds  = flag.Int("seconds", 10, "length of each measured phase in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		traceDir = flag.String("trace-dir", filepath.Join(".bench_build", "traces"), "where a traced run writes its spans")
		ckpt     = flag.Bool("checkpoint", false, "write the tenant-churn checkpoint for -seed to standard output and exit")
	)
	flag.Parse()
	if *ckpt {
		in := newInputs(*seed)
		if err := in.tenantInputs(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		if _, err := os.Stdout.Write(in.nodeState); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	if !slices.Contains(workloadNames, *name) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames, ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	meta := metadata(*name, *seed, *seconds, *trace)
	mb, _ := json.Marshal(meta)
	fmt.Printf("# meta %s\n", mb)

	in := newInputs(*seed)
	d := time.Duration(*seconds) * time.Second
	var (
		res *result
		err error
	)
	if *trace == 0 {
		res, err = endToEnd(*name, in, d)
	} else {
		path := filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.json", *name, *seed))
		res, err = traced(*name, in, d, meta, path)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := selfTest(in.root); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		res.Correct = false
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func metadata(name string, seed uint64, seconds, trace int) map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"workload":   name,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpu,
		"go":         runtime.Version(),
	}
}

// tally accumulates operations and checks across a run's phases.
type tally struct {
	attempted, failed uint64
	check             Checker
}

// phase runs one closed-loop phase of w and folds it into t.
func (t *tally) phase(w workload, d time.Duration, traced bool) (*phaseResult, any) {
	before := w.mark()
	p := closedLoop(d, w.callers(traced)...)
	t.attempted += p.ops
	t.failed += p.failed + w.phaseFailures(before)
	t.check.Merge(&p.check)
	return p, before
}

// finish runs the whole-run checks and reports whether the run's
// output was correct.
func (t *tally) finish(w workload) (bool, error) {
	bad, err := w.verify()
	if err != nil {
		return false, err
	}
	t.failed += bad
	z := t.check.MonobitZ()
	if z > maxMonobitZ || z < -maxMonobitZ {
		fmt.Fprintf(os.Stderr, "perfbench: monobit z = %.2f over %d words\n", z, t.check.words)
	}
	return t.failed == 0 && z <= maxMonobitZ && z >= -maxMonobitZ, nil
}

// bootMedian boots the workload reps times and returns the median
// boot time with the last booted stack, which the run then drives.
func bootMedian(name string, in *inputs, h *hook, reps int) (workload, float64, error) {
	ts := make([]float64, reps)
	var w workload
	for i := range ts {
		if w != nil {
			w.close()
		}
		runtime.GC() // no boot pays for collecting the previous one's garbage
		w = newWorkload(name, in, h)
		t0 := time.Now()
		err := w.boot()
		ts[i] = time.Since(t0).Seconds()
		if err != nil {
			w.close()
			return nil, 0, fmt.Errorf("%s: boot: %w", name, err)
		}
	}
	return w, medianOf(ts), nil
}

func endToEnd(name string, in *inputs, d time.Duration) (*result, error) {
	if name == "tenant-churn" {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		if err := in.tenantInputsFrom(exe); err != nil {
			return nil, err
		}
	}
	w, setup, err := bootMedian(name, in, nil, bootReps[name])
	if err != nil {
		return nil, err
	}
	defer w.close()
	var t tally
	t.phase(w, warmup, false)
	p, _ := t.phase(w, d, false)
	ok, err := t.finish(w)
	if err != nil {
		return nil, err
	}
	m := p.endToEnd()
	m["setup_s"] = setup
	m["peak_rss_mb"] = peakRSSMB()
	metrics, err := withUnits(m)
	if err != nil {
		return nil, err
	}
	return &result{Correct: ok, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}, nil
}

// traced measures the per-layer metrics. The ladder times the feed,
// core and state layers; then every workload runs a traced phase:
// the selected one for half the run length, after an untraced phase
// of the same length on the same stack (their words_per_s ratio is
// the tracing overhead), the others for a quarter. A layer metric
// comes from the selected workload when it exercises that layer,
// else from the first other workload that does; the trace file
// records each metric's source.
func traced(name string, in *inputs, d time.Duration, meta map[string]any, path string) (*result, error) {
	if err := in.tenantInputs(); err != nil {
		return nil, err
	}
	ladder, err := runLadder(in.seed, func() error {
		_, _, err := in.restoreNode()
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	out := make(map[string]float64)
	sources := make(map[string]string)
	for k, v := range ladder {
		out[k], sources[k] = v, "ladder"
	}
	phases := make(map[string]tracePhase)
	order := []string{name}
	for _, n := range workloadNames {
		if n != name {
			order = append(order, n)
		}
	}
	res := &result{Correct: true}
	for _, n := range order {
		h := new(hook)
		w, _, err := bootMedian(n, in, h, 1)
		if err != nil {
			return nil, err
		}
		var t tally
		t.phase(w, warmup, false)
		length := max(d/4, time.Second)
		var base *phaseResult
		if n == name {
			length = max(d/2, time.Second)
			base, _ = t.phase(w, length, false)
		}
		tr := newTracer()
		h.cur.Store(tr)
		p, before := t.phase(w, length, true)
		h.cur.Store(nil)
		tr.close()
		layers := w.layerMetrics(p, tr, before)
		ok, err := t.finish(w)
		w.close()
		if err != nil {
			return nil, err
		}
		if base != nil {
			layers["trace.overhead_frac"] = 1 - p.wordsPerSec()/base.wordsPerSec()
		}
		for k, v := range layers {
			if _, have := out[k]; !have {
				out[k], sources[k] = v, n
			}
		}
		phases[n] = tr.phase()
		res.Correct = res.Correct && ok
		res.Attempted += t.attempted
		res.Failed += t.failed
	}
	var missing []string
	for k := range units {
		if _, ok := out[k]; !ok && !isEndToEnd(k) {
			missing = append(missing, k)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, errors.New("traced run produced no value for " + strings.Join(missing, ", "))
	}
	if res.Metrics, err = withUnits(out); err != nil {
		return nil, err
	}
	if err := writeTraceFile(path, traceFile{Meta: meta, Metrics: out, Sources: sources, Phases: phases}); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return res, nil
}

func isEndToEnd(k string) bool { return !strings.Contains(k, ".") }

// withUnits attaches each metric's unit. A value that is not a finite
// number means a phase measured nothing and is an error.
func withUnits(m map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(m))
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %g", k, v)
		}
		out[k] = metric{Value: v, Unit: units[k]}
	}
	return out, nil
}
