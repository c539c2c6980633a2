// Package obs is the repository's observability layer: a lightweight
// metrics registry (typed counters, gauges, log2-bucketed histograms and
// log-linear latency histograms), a structured event trace for the STEM/SBC
// coupling mechanisms, periodic run snapshots, and an HTTP endpoint that
// exposes all of it live — as JSON and as Prometheus text exposition —
// while a simulation or server runs.
//
// The package is stdlib-only and built around two rules:
//
//  1. Disabled observability must cost (near) nothing on the Access hot
//     path. Every metric method is nil-receiver safe, so instrumented code
//     holds plain pointers and never branches beyond one nil check; the
//     schemes additionally guard event construction behind a single
//     `observer != nil` test.
//
//  2. Reads may be concurrent with the simulation. All metric cells are
//     atomics, so the HTTP endpoint can serve a consistent-enough JSON view
//     of a registry while the (single-goroutine) simulators mutate it.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric. The zero value is
// ready to use; a nil *Counter is a no-op sink.
//
// A counter's value is the atomic count its Inc/Add calls build plus the
// sum of its collectors (see Collect): a component that already keeps an
// exact count under its own lock can expose it at scrape time instead of
// paying a second, shared atomic write per event.
type Counter struct {
	v atomic.Uint64
	// fns holds the collectors, replaced copy-on-write so Value never
	// locks; nil (the common case) costs Value one pointer load.
	fns atomic.Pointer[[]func() uint64]
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds d.
func (c *Counter) Add(d uint64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Collect adds fn to the counter's collectors: from now on Value includes
// fn's result, read at call time. fn must be safe to call concurrently and
// must report a monotonically increasing count. Collectors run on the
// reader's goroutine, never under the registry's lock, so fn may take its
// owner's own locks. Several collectors on one counter sum — two caches
// sharing a registry report their combined count. A nil fn is ignored.
func (c *Counter) Collect(fn func() uint64) {
	if c == nil || fn == nil {
		return
	}
	for {
		old := c.fns.Load()
		var next []func() uint64
		if old != nil {
			next = append(next, *old...)
		}
		next = append(next, fn)
		if c.fns.CompareAndSwap(old, &next) {
			return
		}
	}
}

// Value returns the current count: the atomic part plus every collector's
// result (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	v := c.v.Load()
	if fns := c.fns.Load(); fns != nil {
		for _, fn := range *fns {
			v += fn()
		}
	}
	return v
}

// reset zeroes the atomic part only; collected counts belong to their
// owners and are not the registry's to clear.
func (c *Counter) reset() { c.v.Store(0) }

// Gauge is a last-write-wins float64 metric. A nil *Gauge is a no-op sink.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last stored value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) reset() { g.bits.Store(0) }

// Histogram is a log2-bucketed distribution of uint64 samples: bucket i
// holds samples v with bits.Len64(v) == i, i.e. bucket 0 is exactly {0} and
// bucket i≥1 covers [2^(i-1), 2^i). A nil *Histogram is a no-op sink.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [65]atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Bucket returns the count in log2 bucket i (0 ≤ i ≤ 64).
func (h *Histogram) Bucket(i int) uint64 {
	if h == nil || i < 0 || i >= len(h.buckets) {
		return 0
	}
	return h.buckets[i].Load()
}

// BucketLabel names log2 bucket i as its inclusive value range.
func BucketLabel(i int) string {
	switch {
	case i <= 0:
		return "0"
	case i == 1:
		return "1"
	default:
		return fmt.Sprintf("%d-%d", uint64(1)<<(i-1), (uint64(1)<<i)-1)
	}
}

func (h *Histogram) reset() {
	h.count.Store(0)
	h.sum.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// marshal renders the histogram as a JSON-friendly map with only the
// non-empty buckets.
func (h *Histogram) marshal() map[string]any {
	bkt := map[string]uint64{}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			bkt[BucketLabel(i)] = n
		}
	}
	return map[string]any{"count": h.count.Load(), "sum": h.sum.Load(), "buckets": bkt}
}

// Registry is a named collection of metrics. Metric constructors are
// idempotent: asking twice for the same name returns the same cell, so
// independent components can share totals. All methods are safe for
// concurrent use, and every method on a nil *Registry returns a nil metric
// (itself a no-op sink) — callers never need to special-case "observability
// off".
type Registry struct {
	mu      sync.Mutex
	metrics map[string]any // *Counter | *Gauge | *Histogram | *LatencyHistogram | func() float64
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]any{}}
}

func lookup[T any](r *Registry, name string, make func() T) T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		t, ok := m.(T)
		if !ok {
			// invariant: a metric name maps to one cell type for the life of the registry; re-registering under another type is caller corruption.
			panic(fmt.Sprintf("obs: metric %q already registered with a different type (%T)", name, m))
		}
		return t
	}
	t := make()
	r.metrics[name] = t
	return t
}

// Counter returns the counter registered under name, creating it on first
// use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return lookup(r, name, func() *Counter { return &Counter{} })
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return lookup(r, name, func() *Gauge { return &Gauge{} })
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return lookup(r, name, func() *Histogram { return &Histogram{} })
}

// Latency returns the log-linear latency histogram registered under name,
// creating it on first use.
func (r *Registry) Latency(name string) *LatencyHistogram {
	if r == nil {
		return nil
	}
	return lookup(r, name, func() *LatencyHistogram { return &LatencyHistogram{} })
}

// GaugeFunc registers a derived read-only gauge computed at serve time.
// Re-registering a name replaces the function.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = fn
}

// Names returns all registered metric names, sorted.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Reset zeroes every counter, gauge and histogram (derived gauges are left
// alone). It pairs with sim.Simulator.ResetStats: discard warm-up, keep the
// metric cells and their registrations. A collected counter (Collect) loses
// only its atomic part: the collected counts live in their owners — a
// stemcache's counters are its Stats — and keep reporting them.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.metrics {
		switch m := m.(type) {
		case *Counter:
			m.reset()
		case *Gauge:
			m.reset()
		case *Histogram:
			m.reset()
		case *LatencyHistogram:
			m.reset()
		}
	}
}

// Snapshot returns a JSON-marshalable view of every metric. Map keys are
// the metric names; json.Marshal renders them in sorted order, so the
// output is stable. Values are read after the registry lock is released:
// counter collectors and derived gauges may take their owners' locks, and
// those must never nest inside the registry's.
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	metrics := make(map[string]any, len(r.metrics))
	for n, m := range r.metrics {
		metrics[n] = m
	}
	r.mu.Unlock()
	out := make(map[string]any, len(metrics))
	for n, m := range metrics {
		switch m := m.(type) {
		case *Counter:
			out[n] = m.Value()
		case *Gauge:
			out[n] = m.Value()
		case *Histogram:
			out[n] = m.marshal()
		case *LatencyHistogram:
			out[n] = m.marshal()
		case func() float64:
			out[n] = m()
		}
	}
	return out
}

// WriteJSON writes the registry snapshot as indented JSON ("null" for a nil
// registry, mirroring Snapshot).
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "null\n")
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// ServeHTTP implements http.Handler, serving the registry as JSON — the
// expvar-style live view behind the cmd tools' -metrics flag. A nil registry
// serves "null", keeping the package's nil-receiver guarantee.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	if r == nil {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_, _ = io.WriteString(w, "null\n")
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = r.WriteJSON(w)
}
