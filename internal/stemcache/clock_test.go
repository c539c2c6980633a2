package stemcache

import (
	"fmt"
	"testing"
	"time"
)

// TestClockReadsOnlyForDeadlines pins the lazy clock: an op reads the wall
// clock only when it touches a deadline — examines a matching entry that
// carries one, or stamps one — and then exactly once, however many
// deadlines it touches.
func TestClockReadsOnlyForDeadlines(t *testing.T) {
	c := mustNew[string, int](Config{
		Capacity: 64, Shards: 1, Ways: 4, Seed: 1,
		LoadTTL: time.Hour, StaleTTL: time.Hour, NegativeTTL: time.Hour,
	})
	defer c.Close()
	reads := 0
	clock := int64(1000)
	c.now = func() int64 { reads++; return clock }
	expect := func(want int, name string, op func()) {
		t.Helper()
		reads = 0
		op()
		if reads != want {
			t.Errorf("%s: %d clock reads, want %d", name, reads, want)
		}
	}

	// No deadline anywhere: no clock read at all.
	expect(0, "Set insert", func() { c.Set("a", 1) })
	expect(0, "Set overwrite", func() { c.Set("a", 2) })
	expect(0, "Get hit", func() { c.Get("a") })
	expect(0, "Get miss", func() { c.Get("absent") })
	expect(0, "GetOrSet hit", func() { c.GetOrSet("a", 3) })
	expect(0, "GetOrSet insert", func() { c.GetOrSet("b", 1) })
	expect(0, "Delete", func() { c.Delete("b") })
	expect(0, "Delete absent", func() { c.Delete("b") })
	expect(0, "Set inserts that evict", func() {
		for i := 0; i < 4*c.Capacity(); i++ {
			c.Set(fmt.Sprint("k", i), i)
		}
	})
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatal("the eviction case evicted nothing")
	}

	// A deadline stamped or examined: exactly one read per op.
	expect(1, "SetWithTTL insert", func() { c.SetWithTTL("t", 1, time.Minute) })
	expect(1, "Get of a TTL entry", func() { c.Get("t") })
	expect(1, "GetOrSet hit on a TTL entry", func() { c.GetOrSet("t", 2) })
	expect(1, "GetOrSetWithTTL insert", func() { c.GetOrSetWithTTL("u", 1, time.Minute) })
	expect(1, "SetLoaded", func() { c.SetLoaded("l", 1) })
	expect(1, "LookupLoad of a loaded entry", func() { c.LookupLoad("l") })
	expect(1, "SetNegative", func() { c.SetNegative("n") })
	expect(1, "LookupLoad of a negative entry", func() { c.LookupLoad("n") })
	expect(1, "Delete of a TTL entry", func() { c.Delete("u") })

	// Two deadlines in one op — the stamp and the probed entry's own —
	// still share one read.
	expect(1, "SetWithTTL over a TTL entry", func() { c.SetWithTTL("t", 3, time.Minute) })
	expect(1, "SetLoaded over a loaded entry", func() { c.SetLoaded("l", 2) })
	clock += int64(2 * time.Hour) // "l" is now stale
	expect(1, "GetOrSetWithTTL over a stale entry", func() { c.GetOrSetWithTTL("l", 3, time.Minute) })
	expect(1, "Get that expires a TTL entry", func() { c.Get("t") })

	// Len sweeps with its single eager read.
	expect(1, "Len", func() { c.Len() })
}
