package main

import (
	"time"

	hybridprng "repro"
	"repro/internal/baselines"
	"repro/internal/bitsource"
	"repro/internal/core"
	"repro/internal/rng"
)

// The ladder times the layers below the pool one at a time, with the
// feed, walk length, health floor and seed the workloads use. Each
// figure is the median of ladderReps timed repetitions.
const (
	ladderReps   = 15
	ladderWords  = 1 << 14 // words per lane per repetition
	ladderCalls  = 201     // init / marshal / unmarshal calls timed
	restoreReps  = 5
	feedBitsWord = core.BitsPerStep * core.DefaultWalkLen // feed bits one output word consumes
)

// laneBits builds lane i's feed-bit reader the way the pool builds
// shard i's: glibc seeded from the pool seed and the lane index,
// behind the SP 800-90B monitor.
func laneBits(seed uint64, i int) (*rng.BitReader, error) {
	src := baselines.NewGlibcRand(uint32(baselines.Mix64(seed + uint64(i)*0x9E3779B97F4A7C15)))
	mon, err := bitsource.NewMonitor(src, hMin)
	if err != nil {
		return nil, err
	}
	return rng.NewBitReader(mon), nil
}

// timeReps runs f reps times and returns the median duration in ns
// divided by per.
func timeReps(reps int, per float64, f func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		t0 := time.Now()
		f()
		ts[i] = float64(time.Since(t0)) / per
	}
	return medianOf(ts)
}

var sink uint64

// runLadder measures the feed, core and state layers and returns
// their per-layer metrics. restore times the tenant-churn checkpoint
// restore (set-up's real boot work on that workload).
func runLadder(seed uint64, restore func() error) (map[string]float64, error) {
	m := make(map[string]float64)

	// feed: the bits one output word consumes, read the way the walk
	// reads them (three 21-step chunks, then the 3-bit tail step).
	br, err := laneBits(seed, 0)
	if err != nil {
		return nil, err
	}
	m["feed.ns_per_word"] = timeReps(ladderReps, ladderWords, func() {
		var acc uint64
		for i := 0; i < ladderWords; i++ {
			for b := 0; b < feedBitsWord/63; b++ {
				acc ^= br.Bits(63)
			}
			acc ^= br.Bits(feedBitsWord % 63)
		}
		sink ^= acc
	})

	ws := make([]*core.Walker, core.MaxBatchLanes)
	dst := make([][]uint64, core.MaxBatchLanes)
	for i := range ws {
		b, err := laneBits(seed, i)
		if err != nil {
			return nil, err
		}
		if ws[i], err = core.NewWalker(b, core.Config{}); err != nil {
			return nil, err
		}
		dst[i] = make([]uint64, ladderWords)
	}
	m["core.batch16_ns_per_word"] = timeReps(ladderReps, ladderWords*core.MaxBatchLanes, func() {
		core.FillBatch(ws, dst)
	})
	m["core.scalar_ns_per_word"] = timeReps(ladderReps, ladderWords, func() {
		ws[0].Fill(dst[0])
	})

	readers := make([]*rng.BitReader, ladderCalls)
	for i := range readers {
		if readers[i], err = laneBits(seed, i); err != nil {
			return nil, err
		}
	}
	next := 0
	m["core.init_us"] = timeReps(ladderCalls, 1e3, func() {
		w, err := core.NewWalker(readers[next], core.Config{})
		if err == nil {
			sink ^= w.Next()
		}
		next++
	})

	g, err := hybridprng.New(hybridprng.WithSeed(seed), hybridprng.WithFeed(hybridprng.FeedGlibc),
		hybridprng.WithHealthMonitoring(hMin))
	if err != nil {
		return nil, err
	}
	g.Skip(tenantPreDrawn)
	blob, err := g.MarshalBinary()
	if err != nil {
		return nil, err
	}
	m["state.park_us"] = timeReps(ladderCalls, 1e3, func() {
		b, _ := g.MarshalBinary()
		sink ^= uint64(len(b))
	})
	var unparkErr error
	m["state.unpark_us"] = timeReps(ladderCalls, 1e3, func() {
		if err := new(hybridprng.Generator).UnmarshalBinary(blob); err != nil {
			unparkErr = err
		}
	})
	if unparkErr != nil {
		return nil, unparkErr
	}

	var restoreErr error
	m["state.restore_ms"] = timeReps(restoreReps, 1e6, func() {
		if err := restore(); err != nil {
			restoreErr = err
		}
	})
	return m, restoreErr
}
