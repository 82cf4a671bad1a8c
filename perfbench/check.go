package main

import (
	"fmt"
	"math"
	"math/bits"

	hybridprng "repro"
	"repro/internal/substream"
)

// maxMonobitZ bounds the monobit statistic over every delivered word.
// Under the null (fair, independent bits) |z| > 6 has probability
// ~2e-9 per run, so a trip is a defect, not bad luck.
const maxMonobitZ = 6

// Checker accumulates the output checks one load goroutine applies to
// every word it receives: no word may be zero, and the ones count
// feeds the monobit balance test. Not safe for concurrent use.
type Checker struct {
	words uint64
	ones  uint64
	zeros uint64
}

// Words checks ws and reports whether every word passed.
func (c *Checker) Words(ws []uint64) bool {
	ok := true
	for _, w := range ws {
		if w == 0 {
			c.zeros++
			ok = false
		}
		c.ones += uint64(bits.OnesCount64(w))
	}
	c.words += uint64(len(ws))
	return ok
}

// Word is Words for a single word.
func (c *Checker) Word(w uint64) bool {
	c.words++
	c.ones += uint64(bits.OnesCount64(w))
	if w == 0 {
		c.zeros++
		return false
	}
	return true
}

// Merge adds o's counts to c.
func (c *Checker) Merge(o *Checker) {
	c.words += o.words
	c.ones += o.ones
	c.zeros += o.zeros
}

// MonobitZ is the standardised excess of one bits over half of all
// bits seen.
func (c *Checker) MonobitZ() float64 {
	n := float64(c.words) * 64
	if n == 0 {
		return 0
	}
	return (float64(c.ones) - n/2) / math.Sqrt(n/4)
}

// tenantGenerator is the local reference for a tenant's stream: a
// bare Generator seeded the way the registry derives the key's seed,
// with the options the benchmark's registry is configured with.
func tenantGenerator(root uint64, key string) (*hybridprng.Generator, error) {
	return hybridprng.New(
		hybridprng.WithSeed(substream.DeriveSeed(root, key)),
		hybridprng.WithFeed(hybridprng.FeedGlibc),
		hybridprng.WithHealthMonitoring(hMin),
	)
}

// verifyTenant compares the words a tenant key delivered, in order,
// with the reference stream after skip words already drawn before the
// checkpoint. It returns the index of the first mismatch, or -1.
func verifyTenant(root uint64, key string, skip int, got []uint64) (int, error) {
	g, err := tenantGenerator(root, key)
	if err != nil {
		return 0, err
	}
	g.Skip(uint64(skip))
	for i, w := range got {
		if g.Uint64() != w {
			return i, nil
		}
	}
	return -1, nil
}

// selfTest injects a zero word and a flipped bit into otherwise good
// output and confirms both are caught, so a run whose checks are
// silently broken reports correct=false instead of passing.
func selfTest(root uint64) error {
	const key = "selftest-key"
	g, err := tenantGenerator(root, key)
	if err != nil {
		return err
	}
	words := make([]uint64, 64)
	g.Fill(words)
	var c Checker
	if !c.Words(words) {
		return fmt.Errorf("self-test: clean words flagged")
	}
	words[17] = 0
	if c.Words(words) || c.zeros != 1 {
		return fmt.Errorf("self-test: injected zero word not counted")
	}
	g2, err := tenantGenerator(root, key)
	if err != nil {
		return err
	}
	g2.Fill(words)
	if i, err := verifyTenant(root, key, 0, words); err != nil || i != -1 {
		return fmt.Errorf("self-test: clean tenant stream flagged at %d (%v)", i, err)
	}
	words[40] ^= 1 << 9
	if i, err := verifyTenant(root, key, 0, words); err != nil || i != 40 {
		return fmt.Errorf("self-test: flipped bit reported at %d, want 40 (%v)", i, err)
	}
	return nil
}
