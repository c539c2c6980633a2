package main

import (
	"fmt"
	"runtime"
	"time"
)

const (
	// valueSize is the length of every value the workloads write: the
	// -value-size default of stemload, the repository's load generator.
	valueSize = 128
	// defaultSeed is the seed the sim-paper golden counts were recorded at.
	defaultSeed = 1
	// setupRuns is how many times a run builds its system; setup_s is the
	// median, so one slow build does not move it.
	setupRuns = 9
	// chunk is the closed loop's sampling interval; ops_per_s is the upper
	// quartile of the chunk rates.
	chunk = 250 * time.Millisecond
	// sampleEvery is how sparsely the end-to-end closed loop times its
	// calls: one step in sampleEvery reads the clock, so the timing costs
	// ops_per_s about 1/sampleEvery of loadgen.trace_overhead_pct (which
	// the traced run measures with every step timed).
	sampleEvery = 16
)

// setups builds a system setupRuns times, discards all but the last build
// and returns it with the median build time in seconds. The first build is
// timed from process start, as a user of the system would wait for it.
func setups[T any](build func() (T, error), discard func(T)) (T, float64, error) {
	var (
		cur   T
		times []float64
	)
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			discard(cur)
		}
		t := now()
		if i == 0 {
			t = 0
		}
		var err error
		if cur, err = build(); err != nil {
			return cur, 0, err
		}
		times = append(times, float64(now()-t)/1e9)
	}
	return cur, median(times), nil
}

// memMark is a point in the runtime's allocation and GC history.
type memMark struct {
	numGC      uint32
	totalAlloc uint64
}

func markMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{ms.NumGC, ms.TotalAlloc}
}

// heapMB forces a collection and returns the live heap in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// reportClosed adds the end-to-end metrics every workload shares, all from
// one closed loop over the whole measured time, with one worker per CPU
// each issuing its next call when the previous one returns: throughput,
// and the median GET and SET latency of the sampled calls. The open loop
// at the workload's fixed rate runs only in the traced run (for
// loadgen.late_p99_us): on a shared two-vCPU VM its latencies moved by a
// quarter between runs in quiet periods and several-fold when host stalls
// hit, while the closed loop keeps the machine busy and moves far less.
func reportClosed(r *report, closed closedResult) {
	r.ops(closed.ops, closed.errs)
	q1, _, q3 := quartiles(closed.rates)
	fmt.Printf("closed     %d ops in %.2fs, 1 step in %d timed; chunk rate quartiles %.0f/%.0f/%.0f ops/s\n",
		closed.ops, closed.seconds, sampleEvery, q1, median(closed.rates), q3)
	r.add("ops_per_s", "ops/s", closed.opsPerSec())
	for _, kind := range []string{"get", "set"} {
		d := summarize(closed.lat.get.xs)
		if kind == "set" {
			d = summarize(closed.lat.set.xs)
		}
		fmt.Printf("closed     %s: %d samples kept, p50 %.3fus p99 %.3fus\n", kind, d.n, d.p50/1e3, d.p99/1e3)
		r.add(kind+"_p50_us", "us", d.p50/1e3)
	}
}

// layerPasses are the passes a traced run makes on one workload: an
// untraced closed loop (the baseline for the tracing overhead and the
// runtime's allocation rates), a traced closed loop (the spans), and a
// short open loop (the generator's lateness).
type layerPasses struct {
	base, traced closedResult
	open         openResult
	gcPerMop     float64
	bytesPerOp   float64
}

// basePass runs the untraced closed loop and the runtime's allocation
// rates over it.
func basePass(steps []step, perStep int64, dur time.Duration) layerPasses {
	var lp layerPasses
	m := markMem()
	lp.base = closedLoop(steps, perStep, dur, 0)
	after := markMem()
	ops := float64(max(lp.base.ops, 1))
	lp.gcPerMop = float64(after.numGC-m.numGC) / ops * 1e6
	lp.bytesPerOp = float64(after.totalAlloc-m.totalAlloc) / ops
	return lp
}

// measureLayers makes the three passes of a traced run, the open loop
// over openSteps.
func measureLayers(r *report, steps []step, perStep int64, openSteps []step, dur time.Duration, rate float64, seed uint64, spin bool) layerPasses {
	lp := basePass(steps, perStep, dur)
	lp.traced = closedLoop(steps, perStep, dur, 1)
	lp.open = openLoop(openSteps, rate, dur/2, seed, spin)
	lp.count(r)
	return lp
}

// count folds the passes' operations and errors into the report.
func (lp layerPasses) count(r *report) {
	r.ops(lp.base.ops, lp.base.errs)
	r.ops(lp.traced.ops, lp.traced.errs)
	r.ops(lp.open.ops, lp.open.errs)
}

// addCommon adds the runtime and load-generator metrics of the named
// workload.
func addCommon(r *report, lp layerPasses) {
	base, traced := lp.base.opsPerSec(), lp.traced.opsPerSec()
	r.add("gc.cycles_per_mop", "count", lp.gcPerMop)
	r.add("alloc.bytes_per_op", "B", lp.bytesPerOp)
	r.add("loadgen.late_p99_us", "us", lateP99us(lp.open.late))
	r.add("loadgen.trace_overhead_pct", "%", (base-traced)/base*100)
}
