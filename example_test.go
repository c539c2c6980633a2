package stem_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	stem "repro"
)

// Build the paper's STEM LLC and run it over a deterministic workload.
func ExampleNew() {
	geom := stem.Geometry{Sets: 2, Ways: 4, LineSize: 64}
	cache := stem.New(geom, stem.Config{Seed: 7})
	gen := stem.Figure2Workload(1) // the paper's Figure 2 example #1
	for i := 0; i < 1200; i++ {
		r := gen.Next()
		cache.Access(stem.Access{Block: r.Block, Write: r.Write})
	}
	cache.ResetStats()
	for i := 0; i < 1200; i++ {
		r := gen.Next()
		cache.Access(stem.Access{Block: r.Block, Write: r.Write})
	}
	fmt.Printf("steady-state miss rate: %.3f\n", cache.Stats().MissRate())
	// Output:
	// steady-state miss rate: 0.000
}

// Construct any evaluated scheme by name.
func ExampleNewScheme() {
	geom := stem.Geometry{Sets: 16, Ways: 4, LineSize: 64}
	cache, err := stem.NewScheme("DIP", geom, 42)
	if err != nil {
		panic(err)
	}
	fmt.Println(cache.Name(), cache.Geometry().CapacityBytes(), "bytes")
	// Output:
	// DIP 4096 bytes
}

// The Table 3 storage analysis.
func ExampleTable3() {
	r := stem.Table3()
	fmt.Printf("STEM storage overhead: %.2f%% (paper: 3.1%%)\n", 100*r.OverheadFraction)
	// Output:
	// STEM storage overhead: 3.16% (paper: 3.1%)
}

// Describe a workload by its set-level structure and measure it.
func ExampleRunWorkload() {
	w := stem.Workload{
		Name: "demo", APKI: 20, WriteFrac: 0.25,
		Groups: []stem.Group{
			{Name: "givers", Frac: 0.5, Weight: 0.5, Pat: stem.Pattern{Kind: stem.Scan}},
			{Name: "takers", Frac: 0.5, Weight: 1.0, Pat: stem.Pattern{Kind: stem.Cyclic, N: 12}},
		},
	}
	cfg := stem.RunConfig{
		Geom:    stem.Geometry{Sets: 64, Ways: 8, LineSize: 64},
		Warmup:  50_000,
		Measure: 100_000,
	}
	lru, _ := stem.RunWorkload(w, "LRU", cfg)
	st, _ := stem.RunWorkload(w, "STEM", cfg)
	fmt.Printf("STEM reduces the miss rate: %v\n", st.MissRate < lru.MissRate)
	// Output:
	// STEM reduces the miss rate: true
}

// Quickstart for the key-value cache layer: a cache-aside Get/Set loop.
func ExampleNewCache() {
	c, err := stem.NewCache[string, string](stem.CacheConfig{Capacity: 1024, Seed: 1})
	if err != nil {
		panic(err) // only an invalid CacheConfig errors; this one is static
	}
	defer c.Close()

	if _, ok := c.Get("user:42"); !ok {
		// Miss: fetch from the backing store, then cache it.
		c.Set("user:42", "Ada Lovelace")
	}
	name, ok := c.Get("user:42")
	fmt.Println(name, ok)
	// Output:
	// Ada Lovelace true
}

// Shard count and geometry are configurable: shards bound lock contention
// (and the spatial-coupling domain), ways set the per-set eviction pool.
func ExampleNewCache_shards() {
	c, _ := stem.NewCache[int, int](stem.CacheConfig{
		Capacity: 10_000, // rounded up to shards × sets × ways
		Shards:   4,      // four independent mutexes
		Ways:     16,     // 16 entries share one demand monitor
		Seed:     7,
	})
	defer c.Close()
	fmt.Println(c.Shards(), c.Capacity())
	// Output:
	// 4 16384
}

// Reading CacheStats: drive a scan larger than the cache and watch the
// STEM engine's counters alongside the hit/miss totals.
func ExampleCache_stats() {
	c, _ := stem.NewCache[int, int](stem.CacheConfig{Capacity: 512, Shards: 1, Seed: 3})
	defer c.Close()
	for pass := 0; pass < 40; pass++ {
		for k := 0; k < 1024; k++ { // twice the capacity: LRU alone would thrash
			if _, ok := c.Get(k); !ok {
				c.Set(k, k)
			}
		}
	}
	st := c.Stats()
	fmt.Printf("gets=%d  hitrate>0.2=%v  shadowHits>0=%v  policySwaps>0=%v\n",
		st.Gets, st.HitRate() > 0.2, st.ShadowHits > 0, st.PolicySwaps > 0)
	// Output:
	// gets=40960  hitrate>0.2=true  shadowHits>0=true  policySwaps>0=true
}

// Profile a workload's set-level capacity demands (paper §3.1).
func ExampleNewDemandProfiler() {
	geom := stem.Geometry{Sets: 4, Ways: 16, LineSize: 64}
	p := stem.NewDemandProfiler(geom, 4000, 32)
	// Set 0 cycles 8 blocks (demand 8); the rest stream (demand 0).
	for i := 0; i < 4000; i++ {
		if i%2 == 0 {
			p.Feed(geom.BlockFor(uint64(i/2%8)+1, 0))
		} else {
			p.Feed(geom.BlockFor(uint64(i)+1, 1+i%3))
		}
	}
	p.Flush()
	last := p.Periods()[0]
	fmt.Printf("sets with demand 7-8: %d, with demand 0: %d\n",
		last.Counts[4], last.Counts[0])
	// Output:
	// sets with demand 7-8: 1, with demand 0: 3
}

// Read-through loading: on a miss, GetOrLoad consults the origin exactly
// once per key however many goroutines ask concurrently (singleflight), and
// every caller shares the answer.
func ExampleCache_GetOrLoad() {
	c, _ := stem.NewCache[string, string](stem.CacheConfig{Capacity: 1024, Seed: 1})
	defer c.Close()

	var originCalls atomic.Int32
	origin := func(ctx context.Context, key string) (string, error) {
		originCalls.Add(1)
		return "value-for-" + key, nil
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.GetOrLoad(context.Background(), "user:42", origin); err != nil {
				panic(err)
			}
		}()
	}
	wg.Wait()

	v, _ := c.GetOrLoad(context.Background(), "user:42", origin)
	fmt.Printf("%s after %d origin call(s)\n", v, originCalls.Load())
	// Output:
	// value-for-user:42 after 1 origin call(s)
}

// TestGetOrLoadExampleOneOriginCall runs ExampleCache_GetOrLoad's scenario
// as a test: go test runs an example once whatever -count says, and this
// race is only caught by repetition (-count=200 in CI).
func TestGetOrLoadExampleOneOriginCall(t *testing.T) {
	c, err := stem.NewCache[string, string](stem.CacheConfig{Capacity: 1024, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var originCalls atomic.Int32
	origin := func(ctx context.Context, key string) (string, error) {
		originCalls.Add(1)
		return "value-for-" + key, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.GetOrLoad(context.Background(), "user:42", origin); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := originCalls.Load(); n != 1 {
		t.Fatalf("origin calls = %d; want 1 (singleflight)", n)
	}
}

// Loader chains: try the fast tier first, fall back to the authoritative
// origin, and let GetOrLoad cache whatever tier answered. A loader
// returning stem.ErrNotFound caches the absence (negative caching).
func ExampleChainLoaders() {
	c, _ := stem.NewCache[string, string](stem.CacheConfig{
		Capacity:    1024,
		Seed:        1,
		NegativeTTL: time.Minute,
	})
	defer c.Close()

	fastTier := func(ctx context.Context, key string) (string, error) {
		return "", stem.ErrNotFound // e.g. a memcached tier that missed
	}
	database := func(ctx context.Context, key string) (string, error) {
		if key == "user:42" {
			return "Ada Lovelace", nil
		}
		return "", stem.ErrNotFound
	}
	loader := stem.ChainLoaders(fastTier, database)

	v, err := c.GetOrLoad(context.Background(), "user:42", loader)
	fmt.Println(v, err)
	_, err = c.GetOrLoad(context.Background(), "user:404", loader)
	fmt.Println(err)
	// Output:
	// Ada Lovelace <nil>
	// stemcache: key not found
}

// Stale-while-revalidate: past its freshness TTL a key is served from the
// stale value immediately — the origin's latency leaves the read path —
// while one background worker revalidates.
func ExampleCache_GetOrLoad_staleWhileRevalidate() {
	c, _ := stem.NewCache[string, string](stem.CacheConfig{
		Capacity: 1024,
		Seed:     1,
		LoadTTL:  10 * time.Millisecond, // fresh for 10ms...
		StaleTTL: time.Minute,           // ...then stale-but-servable
	})
	defer c.Close()

	var version atomic.Int32
	origin := func(ctx context.Context, key string) (string, error) {
		return fmt.Sprintf("v%d", version.Add(1)), nil
	}

	v, _ := c.GetOrLoad(context.Background(), "feed", origin)
	fmt.Println("cold load:", v)

	time.Sleep(30 * time.Millisecond) // cross the freshness deadline
	v, _ = c.GetOrLoad(context.Background(), "feed", origin)
	fmt.Println("stale read:", v) // served instantly; refresh runs behind

	for { // the background revalidation lands shortly after
		if v, _ = c.GetOrLoad(context.Background(), "feed", origin); v != "v1" {
			break
		}
		time.Sleep(time.Millisecond)
	}
	fmt.Println("after revalidate:", v)
	// Output:
	// cold load: v1
	// stale read: v1
	// after revalidate: v2
}
