package stemcache

import "repro/internal/obs"

// Stats aggregates a Cache's counters. It is a flat comparable struct, so
// two runs can be compared with ==; Hits/Misses tally Get outcomes only
// (stores and deletes are counted separately), which makes
// HitRate the figure the benchmarks report.
type Stats struct {
	// Gets is the number of Get calls; Gets == Hits + Misses.
	Gets uint64
	// Hits counts Gets that found an unexpired entry (locally or in a
	// coupled giver set).
	Hits uint64
	// Misses counts Gets that found nothing.
	Misses uint64
	// Puts is the number of Set/SetWithTTL calls (inserts and overwrites).
	Puts uint64
	// Deletes counts Delete calls that removed a resident entry.
	Deletes uint64
	// Evictions counts entries dropped from the cache by capacity pressure
	// (spilled entries are moved, not evicted, and are not counted here).
	Evictions uint64
	// Expirations counts entries collected lazily after their TTL passed.
	Expirations uint64
	// SecondaryHits counts Get hits served from a coupled giver set
	// (a subset of Hits) — capacity the spatial mechanism recovered.
	SecondaryHits uint64
	// ShadowHits counts misses whose signature was present in the set's
	// shadow directory: the paper's "this set would have hit with more
	// capacity or the opposite policy" evidence.
	ShadowHits uint64
	// PolicySwaps counts set-level LRU<->BIP swaps (temporal management).
	PolicySwaps uint64
	// Couplings counts taker-giver pairs formed (spatial management).
	Couplings uint64
	// Decouplings counts pairs dissolved after the giver drained.
	Decouplings uint64
	// Spills counts victims placed cooperatively instead of evicted.
	Spills uint64
	// Receives counts entries accepted by giver sets; equals Spills.
	Receives uint64

	// Read-through counters (loader.go). StaleServed hits and NegativeHits
	// misses are included in Hits and Misses respectively, so
	// Gets == Hits + Misses still holds with loading in play.

	// Loads counts loader invocations started by the load path (foreground
	// singleflight leaders plus background revalidations).
	Loads uint64
	// LoadDedup counts GetOrLoad calls that shared another goroutine's
	// in-flight load instead of starting their own — origin fetches the
	// singleflight table saved.
	LoadDedup uint64
	// StaleServed counts load-path hits answered with a stale value inside
	// the StaleTTL window (a subset of Hits).
	StaleServed uint64
	// NegativeHits counts load-path reads answered by a cached negative
	// marker (a subset of Misses): origin fetches negative caching saved.
	NegativeHits uint64

	// The three fields below are instantaneous set-role gauges, not
	// monotonic counters: each Stats() call recomputes them from the live
	// SCDM state (deterministically, for a deterministic op history). They
	// ride in Stats so the STATS wire path exports them without a second
	// message.

	// TakerSets counts sets whose SC_S is saturated right now — the sets
	// the spatial mechanism classifies as capacity takers.
	TakerSets uint64
	// GiverSets counts sets whose SC_S MSB is clear right now — sets with
	// spare capacity the spatial mechanism may lend out. A fresh cache
	// reports every set here (SC_S starts at zero).
	GiverSets uint64
	// CoupledSets counts sets currently in a taker-giver association
	// (both ends counted).
	CoupledSets uint64
}

// HitRate returns Hits/Gets, or 0 for a cache that has seen no Gets.
func (s Stats) HitRate() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Gets)
}

// add accumulates o into s (used by the per-shard aggregation).
func (s *Stats) add(o Stats) {
	s.Gets += o.Gets
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Puts += o.Puts
	s.Deletes += o.Deletes
	s.Evictions += o.Evictions
	s.Expirations += o.Expirations
	s.SecondaryHits += o.SecondaryHits
	s.ShadowHits += o.ShadowHits
	s.PolicySwaps += o.PolicySwaps
	s.Couplings += o.Couplings
	s.Decouplings += o.Decouplings
	s.Spills += o.Spills
	s.Receives += o.Receives
	s.Loads += o.Loads
	s.LoadDedup += o.LoadDedup
	s.StaleServed += o.StaleServed
	s.NegativeHits += o.NegativeHits
	s.TakerSets += o.TakerSets
	s.GiverSets += o.GiverSets
	s.CoupledSets += o.CoupledSets
}

// registerCounters registers one collector per Stats counter under
// "stemcache.*", so the registry reads the one count the op path keeps,
// under the shard lock it already holds: operations never write the
// registry. A collector sums its field over the shards, locking each in
// turn, when the registry is read; the singleflight counters read their
// atomics. Caches sharing a registry sum.
func (c *Cache[K, V]) registerCounters(reg *obs.Registry) {
	if reg == nil {
		return
	}
	shardSum := func(field func(*Stats) uint64) func() uint64 {
		return func() uint64 {
			var n uint64
			for i := range c.shards {
				sh := &c.shards[i]
				sh.mu.Lock()
				n += field(&sh.stats)
				sh.mu.Unlock()
			}
			return n
		}
	}
	for _, ctr := range []struct {
		name  string
		field func(*Stats) uint64
	}{
		{"stemcache.gets", func(s *Stats) uint64 { return s.Gets }},
		{"stemcache.hits", func(s *Stats) uint64 { return s.Hits }},
		{"stemcache.misses", func(s *Stats) uint64 { return s.Misses }},
		{"stemcache.puts", func(s *Stats) uint64 { return s.Puts }},
		{"stemcache.deletes", func(s *Stats) uint64 { return s.Deletes }},
		{"stemcache.evictions", func(s *Stats) uint64 { return s.Evictions }},
		{"stemcache.expirations", func(s *Stats) uint64 { return s.Expirations }},
		{"stemcache.secondary_hits", func(s *Stats) uint64 { return s.SecondaryHits }},
		{"stemcache.shadow_hits", func(s *Stats) uint64 { return s.ShadowHits }},
		{"stemcache.policy_swaps", func(s *Stats) uint64 { return s.PolicySwaps }},
		{"stemcache.couplings", func(s *Stats) uint64 { return s.Couplings }},
		{"stemcache.decouplings", func(s *Stats) uint64 { return s.Decouplings }},
		{"stemcache.spills", func(s *Stats) uint64 { return s.Spills }},
		{"stemcache.receives", func(s *Stats) uint64 { return s.Receives }},
		{"stemcache.stale_served", func(s *Stats) uint64 { return s.StaleServed }},
		{"stemcache.negative_hits", func(s *Stats) uint64 { return s.NegativeHits }},
	} {
		reg.Counter(ctr.name).Collect(shardSum(ctr.field))
	}
	reg.Counter("stemcache.loads").Collect(c.loads.Load)
	reg.Counter("stemcache.load_dedup").Collect(c.loadDedup.Load)
}
