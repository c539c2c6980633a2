package main

import (
	"fmt"
	"time"

	stem "repro"
)

// sim-paper: the paper's simulator with the STEM scheme at paper geometry
// (2048 sets x 16 ways), one goroutine, on the mcf analog, where coupling,
// spilling, policy swaps and shadow hits all fire. It is measured layer by
// layer only (see the package comment); its open loop presents one
// reference per arrival.
const (
	simBench = "mcf"
	simWarm  = 400_000
	// simCheck is the fixed window after warm-up whose hit and miss counts
	// are exact for a seed; at the default seed they must equal the golden
	// counts below.
	simCheck = 12_000_000
	simBlock = 1024
	simRate  = 200_000 // open-loop offered load, references/s

	// Golden counts of the simCheck window at defaultSeed.
	goldenHits   = 4401282
	goldenMisses = 7598718
)

// simSystem is one warmed simulator with its reference stream.
type simSystem struct {
	sim  stem.Simulator
	gen  stem.Generator
	refs []stem.Ref // block buffer
	// seen counts references presented since warm-up; window holds the
	// counters once seen reached simCheck.
	seen   int
	window stem.Stats
}

func buildSim(cfg config) (*simSystem, error) {
	sim, err := stem.NewScheme("STEM", stem.PaperGeometry, cfg.seed)
	if err != nil {
		return nil, err
	}
	b, err := stem.BenchmarkByName(simBench)
	if err != nil {
		return nil, err
	}
	s := &simSystem{sim: sim, gen: stem.NewGenerator(b.Workload, stem.PaperGeometry, cfg.seed), refs: make([]stem.Ref, simBlock)}
	for i := 0; i < simWarm; i++ {
		r := s.gen.Next()
		s.sim.Access(stem.Access{Block: r.Block, Write: r.Write})
	}
	s.sim.ResetStats()
	return s, nil
}

// access presents one reference, snapshotting the counters at the end of
// the check window.
func (s *simSystem) access(r stem.Ref) {
	s.sim.Access(stem.Access{Block: r.Block, Write: r.Write})
	if s.seen++; s.seen == simCheck {
		s.window = s.sim.Stats()
	}
}

// blockStep generates a block of references and replays it; traced, it
// times the two halves as the workloads and core spans.
func (s *simSystem) blockStep(genNs, accNs *int64) step {
	return func(rec *latencies, start int64) error {
		for i := range s.refs {
			s.refs[i] = s.gen.Next()
		}
		var mid int64
		if rec != nil {
			mid = now()
			*genNs += mid - start
		}
		for _, r := range s.refs {
			s.access(r)
		}
		if rec != nil {
			*accNs += now() - mid
		}
		return nil
	}
}

// refStep presents one reference: the open loop's unit of work.
func (s *simSystem) refStep(*latencies, int64) error {
	s.access(s.gen.Next())
	return nil
}

// finishWindow presents references until the check window is complete, so
// a slow run still reports the exact counts.
func (s *simSystem) finishWindow() {
	for s.seen < simCheck {
		s.access(s.gen.Next())
	}
}

// checkStats verifies the counters' internal identities.
func checkStats(st stem.Stats) error {
	switch {
	case st.Hits+st.Misses != st.Accesses:
		return fmt.Errorf("hits %d + misses %d != accesses %d", st.Hits, st.Misses, st.Accesses)
	case st.Spills != st.Receives:
		return fmt.Errorf("spills %d != receives %d", st.Spills, st.Receives)
	case st.SecondaryHits > st.SecondaryRefs || st.SecondaryHits > st.Hits:
		return fmt.Errorf("secondary hits %d exceed secondary probes %d or hits %d", st.SecondaryHits, st.SecondaryRefs, st.Hits)
	}
	return nil
}

// layersSimPaper measures the workloads and core layers: generating a
// block of references and replaying it through Simulator.Access are timed
// separately, and the mechanism counters are taken per thousand accesses.
// It then completes the check window and verifies its counts.
func layersSimPaper(cfg config, r *report, dur time.Duration, common bool) error {
	s, err := buildSim(cfg)
	if err != nil {
		return err
	}
	var genNs, accNs int64
	before := s.sim.Stats()
	lp := measureLayers(r, []step{s.blockStep(&genNs, &accNs)}, simBlock, []step{s.refStep}, dur/3, simRate, cfg.seed, true)
	st := s.sim.Stats()
	if common {
		addCommon(r, lp)
	}
	refs := float64(lp.traced.ops)
	r.add("workloads.next_ns", "ns", float64(genNs)/refs)
	r.add("core.access_ns", "ns", float64(accNs)/refs)
	d := func(a, b uint64) float64 { return float64(a - b) }
	acc := d(st.Accesses, before.Accesses)
	r.add("core.couplings_per_kacc", "count", d(st.Couplings, before.Couplings)/acc*1e3)
	r.add("core.spills_per_kacc", "count", d(st.Spills, before.Spills)/acc*1e3)
	r.add("core.policy_swaps_per_kacc", "count", d(st.PolicySwaps, before.PolicySwaps)/acc*1e3)
	r.add("core.shadow_hits_per_kacc", "count", d(st.ShadowHits, before.ShadowHits)/acc*1e3)
	r.add("core.secondary_hit_frac", "fraction", frac(d(st.SecondaryHits, before.SecondaryHits), d(st.SecondaryRefs, before.SecondaryRefs)))

	s.finishWindow()
	w := s.window
	fmt.Printf("sim window %d accesses after %d warm-up: %d hits, %d misses, %d couplings, %d spills, %d policy swaps, %d shadow hits\n",
		w.Accesses, simWarm, w.Hits, w.Misses, w.Couplings, w.Spills, w.PolicySwaps, w.ShadowHits)
	r.check(checkStats(w))
	r.check(checkStats(s.sim.Stats()))
	if cfg.seed == defaultSeed && (w.Hits != goldenHits || w.Misses != goldenMisses) {
		r.check(fmt.Errorf("seed %d sim window counts %d hits / %d misses, golden %d / %d",
			cfg.seed, w.Hits, w.Misses, goldenHits, goldenMisses))
	}
	return nil
}
