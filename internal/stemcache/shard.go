package stemcache

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/selector"
	"repro/internal/sim"
)

// initialKind is the replacement policy every set starts with; the temporal
// mechanism may swap it to BIP per set.
const initialKind = policy.LRU

func policyNew(cfg Config, rng *sim.RNG) policy.Policy {
	return policy.New(initialKind, cfg.Ways, rng)
}

// role of a set in a spatial association (the software analogue of the
// paper's association table).
type role uint8

const (
	uncoupled role = iota
	taker
	giver
)

// entry is one resident key-value pair. A giver set may hold entries whose
// hash maps to its coupled taker; those carry the cc ("cooperatively
// cached") bit, the software form of the paper's CC bit.
type entry[K comparable, V any] struct {
	key  K
	val  V
	hash uint64
	exp  int64 // expiry in unix nanoseconds; 0 = never
	// fresh is the read-through freshness deadline in unix nanoseconds:
	// past fresh but not past exp the entry is stale — served by the load
	// path (GetOrLoad/LookupLoad) while a background refresh runs, a miss
	// for plain Get. 0 means fresh until exp (every plain Set).
	fresh int64
	valid bool
	cc    bool
	// neg marks a cached absence: the loader answered ErrNotFound and the
	// miss itself is cached until exp (negative caching). The value is the
	// zero V; plain Get reports a miss, the load path reports ErrNotFound.
	neg bool
	// ten is the owning tenant's registry id (0 = default namespace). It
	// travels with the entry through spills so that eviction anywhere —
	// local, cooperative, expiry — debits the right tenant's residency.
	ten uint16
}

// kvSet is one cache set: Ways entries, a replacement policy, and the
// paper's per-set demand monitor (shadow signatures + SC_S/SC_T).
type kvSet[K comparable, V any] struct {
	entries []entry[K, V]
	pol     policy.Policy
	mon     core.Monitor
	// partner is the coupled set's index within the shard, or the set's own
	// index when uncoupled.
	partner   int
	role      role
	foreign   int // valid cc entries resident here (givers only)
	coupledAt uint64
}

// shard is one lock-striped slice of the cache: its own mutex, sets, giver
// heap, RNG and statistics. All fields are guarded by mu.
type shard[K comparable, V any] struct {
	mu    sync.Mutex
	sets  []kvSet[K, V]
	heap  *selector.Heap
	rng   *sim.RNG
	live  int
	tick  uint64
	stats Stats
}

// freeWay returns the first invalid way of s, or -1 when the set is full.
func freeWay[K comparable, V any](s *kvSet[K, V]) int {
	for w := range s.entries {
		if !s.entries[w].valid {
			return w
		}
	}
	return -1
}

// gid translates a shard-local set index to the global set id reported in
// events.
func (c *Cache[K, V]) gid(shIdx, idx int) int { return shIdx*c.sets + idx }

// clock is one operation's wall clock, read lazily: the first get calls now
// and every later get returns the same instant. An op builds one on its
// stack after taking the shard lock, so it makes at most one clock read,
// under that lock — and none at all unless it touches a deadline (a
// matching entry with exp or fresh set) or stamps one (a TTL'd, loaded or
// negative store). Residency, staleness and death are all decided by that
// single read, so a key read exactly at a deadline classifies the same way
// for every operation serialized at that instant.
type clock struct {
	now  func() int64
	n    int64
	read bool
}

func (k *clock) get() int64 {
	if !k.read {
		k.n, k.read = k.now(), true
	}
	return k.n
}

// deadline returns the instant ttl from now, or 0 (never) for ttl <= 0.
func (k *clock) deadline(ttl time.Duration) int64 {
	if ttl <= 0 {
		return 0
	}
	return k.get() + int64(ttl)
}

// findLocal returns the way of set idx holding key as a local (non-cc)
// entry, or -1, plus whether the entry is stale (past its freshness
// deadline but not yet expired). A matching entry that has expired is
// collected on the spot and reported as absent (lazy expiry). The clock is
// read only for an entry that carries a deadline.
func (c *Cache[K, V]) findLocal(sh *shard[K, V], idx int, key K, h uint64, clk *clock) (way int, stale bool) {
	s := &sh.sets[idx]
	for w := range s.entries {
		e := &s.entries[w]
		if e.valid && !e.cc && e.hash == h && e.key == key {
			if e.exp == 0 && e.fresh == 0 {
				return w, false
			}
			nowN := clk.get()
			if e.exp != 0 && nowN > e.exp {
				c.expireLocal(sh, idx, w)
				return -1, false
			}
			return w, e.fresh != 0 && nowN > e.fresh
		}
	}
	return -1, false
}

// findCC returns the way of giver set gidx holding key as a cooperatively
// cached entry, or -1, collecting it if expired; stale as in findLocal.
func (c *Cache[K, V]) findCC(sh *shard[K, V], shIdx, gidx int, key K, h uint64, clk *clock) (way int, stale bool) {
	g := &sh.sets[gidx]
	for w := range g.entries {
		e := &g.entries[w]
		if e.valid && e.cc && e.hash == h && e.key == key {
			if e.exp == 0 && e.fresh == 0 {
				return w, false
			}
			nowN := clk.get()
			if e.exp != 0 && nowN > e.exp {
				c.dropCC(sh, shIdx, gidx, w)
				sh.stats.Expirations++
				return -1, false
			}
			return w, e.fresh != 0 && nowN > e.fresh
		}
	}
	return -1, false
}

// probe finds key's resident entry: in its own set idx, or — when idx is a
// taker — cooperatively cached in the coupled giver (the paper's secondary
// tag probe). It returns the holding set's index (idx itself for a local
// entry), the way (-1 when absent) and whether the entry is stale.
func (c *Cache[K, V]) probe(sh *shard[K, V], shIdx, idx int, key K, h uint64, clk *clock) (set, way int, stale bool) {
	if w, st := c.findLocal(sh, idx, key, h, clk); w >= 0 {
		return idx, w, st
	}
	s := &sh.sets[idx]
	if s.role == taker {
		if w, st := c.findCC(sh, shIdx, s.partner, key, h, clk); w >= 0 {
			return s.partner, w, st
		}
	}
	return idx, -1, false
}

// hit counts a Get hit of tenant tid on the entry probe found at (set, w)
// and applies the hit-side mechanism updates. Cooperative hits update
// neither set's counters: they are not local-capacity evidence for either
// working set.
func (c *Cache[K, V]) hit(sh *shard[K, V], shIdx, idx, set, w, tid int) {
	sh.stats.Hits++
	c.tHit(tid)
	sh.sets[set].pol.OnHit(w)
	if set == idx {
		c.onLocalHit(sh, shIdx, idx)
	} else {
		sh.stats.SecondaryHits++
	}
}

// expireLocal collects the expired local entry at (idx, w).
func (c *Cache[K, V]) expireLocal(sh *shard[K, V], idx, w int) {
	s := &sh.sets[idx]
	owner := s.entries[w].ten
	s.entries[w] = entry[K, V]{}
	s.pol.OnInvalidate(w)
	sh.live--
	c.tLiveDec(owner)
	sh.stats.Expirations++
}

// dropCC removes the cooperatively cached entry at (gidx, w) — on deletion
// or expiry — and dissolves the association if it was the giver's last one.
func (c *Cache[K, V]) dropCC(sh *shard[K, V], shIdx, gidx, w int) {
	g := &sh.sets[gidx]
	owner := g.entries[w].ten
	g.entries[w] = entry[K, V]{}
	g.pol.OnInvalidate(w)
	g.foreign--
	sh.live--
	c.tLiveDec(owner)
	if g.foreign == 0 && g.role == giver {
		c.decouple(sh, shIdx, gidx)
	}
}

// consultShadow runs the miss path's demand update for set idx: a shadow
// lookup for the missing key's signature, the SC_S/SC_T counter rules, a
// policy swap when SC_T saturates, and giver-heap maintenance (paper
// §4.3-4.4). tid is the tenant whose miss this is: a shadow hit is that
// tenant's "one more entry would have hit" evidence, the signal the
// cross-tenant arbiter aggregates.
func (c *Cache[K, V]) consultShadow(sh *shard[K, V], shIdx, idx int, h uint64, tid int) {
	s := &sh.sets[idx]
	if s.mon.Shadow.LookupInvalidate(c.sigOf(h)) {
		swap := s.mon.OnShadowHit(c.cgeom)
		sh.stats.ShadowHits++
		c.tShadow(tid)
		if c.observer != nil {
			c.emit(obs.Event{
				Type: obs.EvShadowHit, Tick: sh.tick, Set: c.gid(shIdx, idx),
				ScS: s.mon.ScS, ScT: s.mon.ScT,
			})
		}
		if swap && !c.cfg.DisableSwap {
			c.swapPolicies(sh, shIdx, idx)
		}
	}
	c.reconsiderGiver(sh, idx)
}

// onLocalHit applies the hit-side counter rules for set idx: SC_T always
// decrements, SC_S with probability 1/2^n.
func (c *Cache[K, V]) onLocalHit(sh *shard[K, V], shIdx, idx int) {
	s := &sh.sets[idx]
	decS := sh.rng.OneIn(1 << uint(c.cfg.SpatialShift))
	s.mon.OnLLCHit(decS)
	if decS {
		c.reconsiderGiver(sh, idx)
	}
}

// reconsiderGiver keeps the shard's giver heap consistent with set idx's
// counter state: uncoupled sets with a clear MSB are posted (or re-keyed);
// everything else is withdrawn.
func (c *Cache[K, V]) reconsiderGiver(sh *shard[K, V], idx int) {
	if c.cfg.DisableCoupling {
		return
	}
	s := &sh.sets[idx]
	if s.role == uncoupled && s.mon.IsGiver(c.cgeom) {
		sh.heap.Post(idx, s.mon.ScS)
		return
	}
	sh.heap.Remove(idx)
}

// swapPolicies exchanges set idx's policy with its shadow's opposite (paper
// §4.4), preserving both rankings, and resets SC_T.
func (c *Cache[K, V]) swapPolicies(sh *shard[K, V], shIdx, idx int) {
	s := &sh.sets[idx]
	next := policy.Opposite(s.pol.Kind())
	policy.SwapKind(s.pol, next)
	s.mon.Shadow.SwapPolicy(policy.Opposite(next))
	s.mon.ScT = 0
	sh.stats.PolicySwaps++
	if c.observer != nil {
		c.emit(obs.Event{
			Type: obs.EvPolicySwap, Tick: sh.tick, Set: c.gid(shIdx, idx),
			ScS: s.mon.ScS, ScT: s.mon.ScT, Policy: next.String(),
		})
	}
}

// tryCouple pairs taker set idx with the shard's least-saturated live giver
// (paper §4.5: coupling is triggered by a taker's eviction).
func (c *Cache[K, V]) tryCouple(sh *shard[K, V], shIdx, idx int) {
	for tries := 0; tries < c.cfg.SelectorSize; tries++ {
		cand, _, ok := sh.heap.PopMin()
		if !ok {
			return
		}
		if cand == idx {
			continue
		}
		g := &sh.sets[cand]
		// Heap entries can be stale; re-validate against the live monitor.
		if g.role != uncoupled || !g.mon.IsGiver(c.cgeom) {
			continue
		}
		s := &sh.sets[idx]
		s.partner, s.role = cand, taker
		g.partner, g.role = idx, giver
		s.coupledAt, g.coupledAt = sh.tick, sh.tick
		sh.heap.Remove(idx)
		sh.stats.Couplings++
		if c.observer != nil {
			c.emit(obs.Event{
				Type: obs.EvCouple, Tick: sh.tick,
				Set: c.gid(shIdx, idx), Partner: c.gid(shIdx, cand),
				ScS: s.mon.ScS, ScT: s.mon.ScT,
			})
		}
		return
	}
}

// routeVictim decides what happens to an entry evicted from set idx: a cc
// entry leaves the cache (possibly dissolving the association); a local
// victim of a spilling-eligible taker is cooperatively cached in the giver;
// everything else leaves the cache with its signature recorded in the
// owner's shadow directory.
func (c *Cache[K, V]) routeVictim(sh *shard[K, V], shIdx, idx int, v entry[K, V]) {
	s := &sh.sets[idx]
	if v.cc {
		s.foreign--
		c.evict(sh, v)
		if s.foreign == 0 && s.role == giver {
			c.decouple(sh, shIdx, idx)
		}
		return
	}
	if s.role == taker && s.mon.ScS >= c.cgeom.MSB && c.spillAllowed(&v) {
		// Spilling allowed only while the taker still demands capacity
		// (§4.6/4.7), the giver can still receive (§4.6), and the victim's
		// tenant has capacity grant left to spend (tenant.go).
		g := &sh.sets[s.partner]
		if g.mon.IsGiver(c.cgeom) {
			c.receive(sh, shIdx, s.partner, v)
			return
		}
	}
	c.evict(sh, v)
}

// receive inserts taker victim v into giver set gidx as a cooperatively
// cached entry, at the position the giver's current policy dictates.
func (c *Cache[K, V]) receive(sh *shard[K, V], shIdx, gidx int, v entry[K, V]) {
	g := &sh.sets[gidx]
	v.cc = true
	way := freeWay(g)
	if way < 0 {
		way = g.pol.Victim()
		if way < 0 {
			// invariant: a full set always has a victim — every policy's
			// Victim returns a way once no free way exists.
			panic("stemcache: full giver set but policy reports no victim")
		}
		gv := g.entries[way]
		g.entries[way].valid = false
		g.pol.OnInvalidate(way)
		if gv.cc {
			g.foreign--
		}
		c.evict(sh, gv)
	}
	g.entries[way] = v
	g.pol.OnInsert(way)
	g.foreign++
	sh.stats.Spills++
	sh.stats.Receives++
	if c.observer != nil {
		t := g.partner
		ts := &sh.sets[t]
		c.emit(obs.Event{
			Type: obs.EvSpill, Tick: sh.tick,
			Set: c.gid(shIdx, t), Partner: c.gid(shIdx, gidx),
			ScS: ts.mon.ScS, ScT: ts.mon.ScT,
		})
		c.emit(obs.Event{
			Type: obs.EvReceive, Tick: sh.tick,
			Set: c.gid(shIdx, gidx), Partner: c.gid(shIdx, t),
			ScS: g.mon.ScS, ScT: g.mon.ScT,
		})
	}
}

// evict handles an entry truly leaving the cache: the resident count drops
// and the owner set's shadow directory records the signature, so a future
// miss on the same key becomes demand evidence.
func (c *Cache[K, V]) evict(sh *shard[K, V], v entry[K, V]) {
	sh.live--
	c.tLiveDec(v.ten)
	sh.stats.Evictions++
	owner := c.setOf(v.hash)
	sh.sets[owner].mon.Shadow.Insert(c.sigOf(v.hash))
}

// decouple dissolves the association of giver set gidx with its taker
// (paper §4.7), resetting both association entries to self.
func (c *Cache[K, V]) decouple(sh *shard[K, V], shIdx, gidx int) {
	g := &sh.sets[gidx]
	tIdx := g.partner
	t := &sh.sets[tIdx]
	t.partner, t.role = tIdx, uncoupled
	g.partner, g.role = gidx, uncoupled
	sh.stats.Decouplings++
	if c.observer != nil {
		c.emit(obs.Event{
			Type: obs.EvDecouple, Tick: sh.tick,
			Set: c.gid(shIdx, gidx), Partner: c.gid(shIdx, tIdx),
			ScS: g.mon.ScS, ScT: g.mon.ScT, Life: sh.tick - g.coupledAt,
		})
	}
	// Both ends may immediately qualify as givers again.
	c.reconsiderGiver(sh, gidx)
	c.reconsiderGiver(sh, tIdx)
}
