package main

import (
	"net/http"
	"testing"
	"time"
)

func TestSelfTest(t *testing.T) {
	if err := selfTest(newInputs(1).root); err != nil {
		t.Fatal(err)
	}
}

func TestMonobitZ(t *testing.T) {
	var c Checker
	c.Words([]uint64{0x5555555555555555, 0xAAAAAAAAAAAAAAAA})
	if z := c.MonobitZ(); z != 0 {
		t.Errorf("balanced words: z = %g, want 0", z)
	}
	c.Words(make([]uint64, 4)) // 256 zero bits
	if z := c.MonobitZ(); z > -maxMonobitZ {
		t.Errorf("zero-heavy words: z = %g, want below %d", z, -maxMonobitZ)
	}
}

// corruptWriter rewrites every body chunk the handler writes.
type corruptWriter struct {
	http.ResponseWriter
	f func([]byte)
}

func (c corruptWriter) Write(p []byte) (int, error) {
	q := append([]byte(nil), p...)
	c.f(q)
	return c.ResponseWriter.Write(q)
}

// runCorrupted drives tenant-churn briefly while every response for
// caller 0's most popular key (a sampled key) is rewritten by f, and
// returns the run's failed-operation count and verdict.
func runCorrupted(t *testing.T, f func([]byte)) (uint64, bool) {
	t.Helper()
	in := newInputs(7)
	if err := in.tenantInputs(); err != nil {
		t.Fatal(err)
	}
	w := &tenantChurn{in: in}
	if f != nil {
		path := "/v1/stream/" + in.keys[in.owned[0][0]] + "/bytes"
		w.wrap = func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				if r.URL.Path == path {
					rw = corruptWriter{rw, f}
				}
				next.ServeHTTP(rw, r)
			})
		}
	}
	if err := w.boot(); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	var tl tally
	p, _ := tl.phase(w, 300*time.Millisecond, false)
	if p.ops == 0 {
		t.Fatal("no requests completed")
	}
	ok, err := tl.finish(w)
	if err != nil {
		t.Fatal(err)
	}
	return tl.failed, ok
}

func TestCleanTenantRunPasses(t *testing.T) {
	if failed, ok := runCorrupted(t, nil); failed != 0 || !ok {
		t.Fatalf("clean run: failed=%d correct=%v", failed, ok)
	}
}

func TestInjectedZeroWordCountsAsFailed(t *testing.T) {
	failed, ok := runCorrupted(t, func(b []byte) {
		for i := 8; i < 16 && i < len(b); i++ {
			b[i] = 0
		}
	})
	if failed == 0 || ok {
		t.Fatalf("zero word injected: failed=%d correct=%v, want failures and correct=false", failed, ok)
	}
}

func TestInjectedFlippedBitCountsAsFailed(t *testing.T) {
	failed, ok := runCorrupted(t, func(b []byte) {
		if len(b) > 100 {
			b[100] ^= 0x10
		}
	})
	if failed != 1 || ok {
		t.Fatalf("bit flipped: failed=%d correct=%v, want the sampled key's check to fail once", failed, ok)
	}
}
