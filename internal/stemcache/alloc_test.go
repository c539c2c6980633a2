package stemcache

import (
	"fmt"
	"testing"

	"repro/internal/obs"
)

// The hot-path allocation benchmarks pin the cache's per-op contract: on a
// warm string-keyed cache, a Get (hit or miss, with or without a metrics
// registry attached) and a Set (overwrite, or insert into a full set that
// must evict) perform zero allocations. CI runs them via
// scripts/bench_hotpath.sh and asserts allocs/op == 0 from
// BENCH_hotpath.json; the static half of the claim is the hotpath
// analyzer's Cache.Get root (internal/analysis).

const benchReadKeys = 1 << 10

// benchReadCache returns a cache built from cfg and warmed with
// benchReadKeys resident string keys, plus the key list used to populate
// it.
func benchReadCache(tb testing.TB, cfg Config) (*Cache[string, []byte], []string) {
	tb.Helper()
	c, err := New[string, []byte](cfg)
	if err != nil {
		tb.Fatal(err)
	}
	keys := benchKeys(benchReadKeys)
	val := make([]byte, 128)
	for _, k := range keys {
		c.Set(k, val)
	}
	return c, keys
}

func benchKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench:key:%05d", i)
	}
	return keys
}

// monitoredConfig is benchConfig with a metrics registry attached, as a
// monitored embedding runs the cache.
func monitoredConfig() Config {
	cfg := benchConfig()
	cfg.Metrics = obs.NewRegistry()
	return cfg
}

// benchEvictKeys is the key-cycle length of the eviction case: eight times
// the evicting cache's capacity, so cycling Set through it keeps inserting
// keys that are no longer resident into full sets.
const benchEvictKeys = 8 * benchReadKeys

// benchEvictCache returns a benchReadKeys-capacity cache already filled by
// one pass over benchEvictKeys keys, plus those keys.
func benchEvictCache(tb testing.TB) (*Cache[string, []byte], []string) {
	tb.Helper()
	cfg := benchConfig()
	cfg.Capacity = benchReadKeys
	c, err := New[string, []byte](cfg)
	if err != nil {
		tb.Fatal(err)
	}
	keys := benchKeys(benchEvictKeys)
	val := make([]byte, 128)
	for _, k := range keys {
		c.Set(k, val)
	}
	return c, keys
}

// hotPathCases are the gated operations, each a closure over its own warm
// cache that performs one op per call.
func hotPathCases(tb testing.TB) []struct {
	name string
	op   func()
} {
	tb.Helper()
	val := make([]byte, 128)
	cycle := func(c *Cache[string, []byte], keys []string, op func(*Cache[string, []byte], string)) func() {
		i := 0
		return func() {
			op(c, keys[i%len(keys)])
			i++
		}
	}
	get := func(c *Cache[string, []byte], k string) { c.Get(k) }
	getMiss := func(c *Cache[string, []byte], _ string) { c.Get("bench:absent-key") }
	set := func(c *Cache[string, []byte], k string) { c.Set(k, val) }

	plain, plainKeys := benchReadCache(tb, benchConfig())
	mon, monKeys := benchReadCache(tb, monitoredConfig())
	ev, evKeys := benchEvictCache(tb)
	return []struct {
		name string
		op   func()
	}{
		{"shard-read", cycle(plain, plainKeys, get)},
		{"shard-read-miss", cycle(plain, plainKeys, getMiss)},
		{"monitored-read", cycle(mon, monKeys, get)},
		{"monitored-read-miss", cycle(mon, monKeys, getMiss)},
		{"set-overwrite", cycle(plain, plainKeys, set)},
		{"set-insert-evict", cycle(ev, evKeys, set)},
	}
}

func BenchmarkAllocsHotPathStemCache(b *testing.B) {
	for _, hc := range hotPathCases(b) {
		b.Run(hc.name, func(b *testing.B) {
			hc.op() // reach steady state before measuring
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hc.op()
			}
		})
	}
}
