package obs

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCounterCollectSums(t *testing.T) {
	var c Counter
	c.Add(5)
	var a, b atomic.Uint64
	a.Store(10)
	b.Store(100)
	c.Collect(a.Load)
	c.Collect(b.Load)
	c.Collect(nil) // ignored
	if got := c.Value(); got != 115 {
		t.Fatalf("Value = %d; want atomic 5 + collectors 10 + 100", got)
	}
	// Collected counts are read live, at Value time.
	a.Add(1)
	c.Inc()
	if got := c.Value(); got != 117 {
		t.Fatalf("Value after updates = %d; want 117", got)
	}
}

func TestCounterCollectNilCounter(t *testing.T) {
	var c *Counter
	c.Collect(func() uint64 { return 7 }) // no-op, must not panic
	if got := c.Value(); got != 0 {
		t.Fatalf("nil counter Value = %d; want 0", got)
	}
	var reg *Registry
	reg.Counter("x").Collect(func() uint64 { return 7 })
}

// TestRegistryResetKeepsCollected pins the documented Reset semantics: a
// collected counter loses only its atomic part.
func TestRegistryResetKeepsCollected(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	c.Add(3)
	c.Collect(func() uint64 { return 40 })
	reg.Reset()
	if got := c.Value(); got != 40 {
		t.Fatalf("Value after Reset = %d; want 40 (collector untouched)", got)
	}
}

func TestCollectedCounterExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("cache.hits").Collect(func() uint64 { return 12 })
	reg.Counter("cache.hits").Collect(func() uint64 { return 30 })
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE cache_hits counter\ncache_hits 42\n"
	if got := buf.String(); got != want {
		t.Fatalf("exposition = %q; want %q", got, want)
	}
	if got := reg.Snapshot()["cache.hits"]; got != uint64(42) {
		t.Fatalf("snapshot cache.hits = %v; want 42", got)
	}
}

// TestCollectorsRunOutsideRegistryLock: collectors may take their owners'
// locks, so Snapshot and WritePrometheus must call them with the registry
// mutex released. A collector that finds the registry mutex taken proves
// the opposite.
func TestCollectorsRunOutsideRegistryLock(t *testing.T) {
	reg := NewRegistry()
	var underLock atomic.Bool
	reg.Counter("probe").Collect(func() uint64 {
		if !reg.mu.TryLock() {
			underLock.Store(true)
			return 0
		}
		reg.mu.Unlock()
		return 1
	})
	reg.Snapshot()
	if err := reg.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if underLock.Load() {
		t.Fatal("a collector ran while the registry mutex was held")
	}
}

// TestCounterCollectConcurrent races Collect against Value and Inc; run
// under -race it checks the copy-on-write collector list.
func TestCounterCollectConcurrent(t *testing.T) {
	var c Counter
	const writers, perWriter = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Collect(func() uint64 { return 1 })
				c.Inc()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var last uint64
		for i := 0; i < 1000; i++ {
			v := c.Value()
			if v < last {
				t.Errorf("Value went backwards: %d after %d", v, last)
				return
			}
			last = v
		}
	}()
	wg.Wait()
	<-done
	if got, want := c.Value(), uint64(2*writers*perWriter); got != want {
		t.Fatalf("Value = %d; want %d (every Collect and Inc kept)", got, want)
	}
}
