package main

import (
	"fmt"
	"time"

	stem "repro"
	"repro/internal/workloads"
)

// lib-mixed: the in-process stem.Cache with a metrics registry attached, as
// a monitored embedding runs it. Workers run cache-aside over the "mixed"
// key stream (a Zipf hot set of capacity/4 keys plus a per-worker scan over
// twice the capacity), where set dueling, SCDM coupling and spilling all
// fire.
const (
	libCapacity = 1 << 15 // the stemcache package's own benchmark capacity
	libRate     = 500_000 // open-loop offered load of the traced run, ops/s: a third of the closed-loop rate
	// ratioRounds is how many interleaved rounds the cost ratios of the
	// traced run are timed over.
	ratioRounds = 3
)

// kv is the cache surface a cache-aside worker drives.
type kv interface {
	Get(key string) ([]byte, bool, error)
	Set(key string, value []byte) error
}

// tally counts one worker's GETs and hits, for comparison with the cache's
// own counters.
type tally struct{ gets, hits int64 }

func sumTallies(ts []tally) (t tally) {
	for _, x := range ts {
		t.gets += x.gets
		t.hits += x.hits
	}
	return t
}

// cacheAside is one worker's loop body: GET the next key; on a hit check
// the value, on a miss build the key's next value and SET it. Each key is
// drawn at the end of the step before it, so drawing keys is never timed.
func cacheAside(store kv, next func() string, ws *writers, w, size int, t *tally) step {
	k := next()
	return func(rec *latencies, start int64) error {
		defer func() { k = next() }()
		v, ok, err := store.Get(k)
		if rec != nil {
			d := float64(now() - start)
			rec.get.add(d)
			if ok {
				rec.hit.add(d)
			}
		}
		t.gets++
		if err != nil {
			return fmt.Errorf("get %q: %w", k, err)
		}
		if ok {
			t.hits++
			_, err := ws.check(k, v, size)
			return err
		}
		val := makeValue(k, ws.next(w), size)
		var sent int64
		if rec != nil {
			sent = now()
		}
		if err := store.Set(k, val); err != nil {
			return fmt.Errorf("set %q: %w", k, err)
		}
		if rec != nil {
			rec.set.add(float64(now() - sent))
		}
		return nil
	}
}

// cacheKV adapts stem.Cache to kv.
type cacheKV struct{ c *stem.Cache[string, []byte] }

func (c cacheKV) Get(k string) ([]byte, bool, error) { v, ok := c.c.Get(k); return v, ok, nil }
func (c cacheKV) Set(k string, v []byte) error       { c.c.Set(k, v); return nil }

// libSystem is one built lib-mixed cache with its workers.
type libSystem struct {
	cache   *stem.Cache[string, []byte]
	steps   []step
	tallies []tally
}

// buildLib builds a cache (STEM, or the sharded-LRU baseline) with or
// without a registry and warms it with two capacities' worth of the
// workers' own streams.
func buildLib(cfg config, lru, registry bool) (*libSystem, error) {
	ccfg := stem.CacheConfig{Capacity: libCapacity, Seed: cfg.seed}
	if registry {
		ccfg.Metrics = stem.NewRegistry()
	}
	newCache := stem.NewCache[string, []byte]
	if lru {
		newCache = stem.NewShardedLRUCache[string, []byte]
	}
	c, err := newCache(ccfg)
	if err != nil {
		return nil, err
	}
	s := &libSystem{cache: c, tallies: make([]tally, cfg.workers)}
	ws := newWriters(cfg.workers)
	for w := 0; w < cfg.workers; w++ {
		next, err := workloads.NewWorkerKeyStream("mixed", libCapacity, cfg.seed+uint64(w), w, cfg.workers)
		if err != nil {
			c.Close()
			return nil, err
		}
		s.steps = append(s.steps, cacheAside(cacheKV{c}, next, ws, w, valueSize, &s.tallies[w]))
	}
	if err := warm(s.steps, 2*libCapacity); err != nil {
		c.Close()
		return nil, err
	}
	return s, nil
}

// warm runs n steps split across the workers, concurrently and untimed.
func warm(steps []step, n int) error {
	errs := make(chan error, len(steps))
	for _, st := range steps {
		go func() {
			for i := 0; i < n/len(steps); i++ {
				if err := st(nil, 0); err != nil {
					errs <- fmt.Errorf("warm-up: %w", err)
					return
				}
			}
			errs <- nil
		}()
	}
	var first error
	for range steps {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func runLibMixed(cfg config, r *report) error {
	s, setupS, err := setups(func() (*libSystem, error) { return buildLib(cfg, false, true) },
		func(s *libSystem) { s.cache.Close() })
	if err != nil {
		return err
	}
	defer s.cache.Close()
	r.add("setup_s", "s", setupS)

	before, tBefore := s.cache.Stats(), sumTallies(s.tallies)
	closed := closedLoop(s.steps, 1, cfg.seconds, sampleEvery)
	st, t := s.cache.Stats(), sumTallies(s.tallies)
	reportClosed(r, closed)
	r.check(statsAgree(before, st, tBefore, t))
	r.add("hit_rate", "fraction", float64(st.Hits-before.Hits)/float64(st.Gets-before.Gets))
	r.add("heap_mb", "MiB", heapMB())
	return nil
}

// statsAgree checks the cache's own GET and hit counts against what the
// workers saw between two snapshots.
func statsAgree(before, after stem.CacheStats, tb, ta tally) error {
	gets, hits := after.Gets-before.Gets, after.Hits-before.Hits
	if int64(gets) != ta.gets-tb.gets || int64(hits) != ta.hits-tb.hits {
		return fmt.Errorf("cache counted %d gets / %d hits, workers saw %d / %d",
			gets, hits, ta.gets-tb.gets, ta.hits-tb.hits)
	}
	return nil
}

// layersLibMixed measures the stemcache layer: per-call spans around
// Cache.Get and Cache.Set, the same stream on the sharded-LRU baseline and
// on a cache without a registry (for the two cost ratios), and the
// mechanism counters per thousand operations.
func layersLibMixed(cfg config, r *report, dur time.Duration, common bool) error {
	s, err := buildLib(cfg, false, true)
	if err != nil {
		return err
	}
	defer s.cache.Close()
	before := s.cache.Stats()
	lp := measureLayers(r, s.steps, 1, s.steps, dur/4, libRate, cfg.seed, true)
	st := s.cache.Stats()
	if common {
		addCommon(r, lp)
	}
	get, set := summarize(lp.traced.lat.get.xs), summarize(lp.traced.lat.set.xs)
	r.add("stemcache.get_ns", "ns", get.avg)
	r.add("stemcache.get_p99_ns", "ns", get.p99)
	r.add("stemcache.set_ns", "ns", set.avg)
	r.add("stemcache.set_p99_ns", "ns", set.p99)

	// The two cost ratios time GET hits on three live caches built from
	// the same seed (this one, the sharded-LRU baseline and STEM without a
	// registry) in interleaved rounds, so that drift in the machine or in
	// the heap falls on all three alike; the two new caches first run one
	// untimed chunk each to settle. Only hits are compared: the caches hit
	// at different rates on this stream, so a mean over all calls would
	// mix the hit-rate gap into the per-call cost.
	lru, err := buildLib(cfg, true, true)
	if err != nil {
		return err
	}
	defer lru.cache.Close()
	bare, err := buildLib(cfg, false, false)
	if err != nil {
		return err
	}
	defer bare.cache.Close()
	for _, c := range []*libSystem{lru, bare} {
		res := closedLoop(c.steps, 1, chunk, 0)
		r.ops(res.ops, res.errs)
	}
	var hitNs [3]float64
	for range ratioRounds {
		for i, c := range []*libSystem{s, lru, bare} {
			res := closedLoop(c.steps, 1, dur/(8*ratioRounds), 1)
			r.ops(res.ops, res.errs)
			hitNs[i] += mean(res.lat.hit.xs) / ratioRounds
		}
	}
	r.add("stemcache.lru_ratio", "ratio", hitNs[0]/hitNs[1])
	r.add("stemcache.registry_ratio", "ratio", hitNs[0]/hitNs[2])

	d := func(a, b uint64) float64 { return float64(a - b) }
	ops := float64(lp.base.ops + lp.traced.ops + lp.open.ops)
	r.add("stemcache.shadow_hit_frac", "fraction", frac(d(st.ShadowHits, before.ShadowHits), d(st.Misses, before.Misses)))
	r.add("stemcache.spill_useful_frac", "fraction", frac(d(st.SecondaryHits, before.SecondaryHits), d(st.Spills, before.Spills)))
	r.add("stemcache.policy_swaps_per_kop", "count", d(st.PolicySwaps, before.PolicySwaps)/ops*1e3)
	r.add("stemcache.evictions_per_kop", "count", d(st.Evictions, before.Evictions)/ops*1e3)
	return nil
}
