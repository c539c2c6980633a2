//go:build !race

// The race detector instruments allocations, so the hard ==0 assertion
// only holds in a plain build; CI runs this gate separately from the
// -race suite.

package stemcache

import "testing"

// TestHotPathZeroAllocs is the in-tree form of the CI allocation gate: on
// a warm string-keyed cache, Get hits and shadow-registering misses (with
// and without a metrics registry), Set overwrites and Set inserts that
// evict must not allocate. The miss and evict paths feed the demand
// counters and the STEM victim path, and must stay allocation-free too.
func TestHotPathZeroAllocs(t *testing.T) {
	for _, hc := range hotPathCases(t) {
		hc.op() // reach steady state before measuring
		if allocs := testing.AllocsPerRun(100, hc.op); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", hc.name, allocs)
		}
	}
}
