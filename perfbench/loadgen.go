package main

import (
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// epoch anchors every benchmark timestamp; its monotonic reading makes
// now() immune to wall-clock steps. It is set at package initialization,
// which is as close to process start as Go code can observe.
var epoch = time.Now() //lint:allow(determinism) a benchmark measures wall time by definition; no seeded output reads it

// now returns monotonic nanoseconds since process start.
func now() int64 { return int64(time.Since(epoch)) }

// step performs one benchmark operation for one worker. With rec non-nil it
// records the latency of each call it makes: the first call measured from
// start, any call that depends on the first's reply (the fill after a
// cache-aside miss) from its own send. A returned error is a failed
// operation or a failed correctness check.
type step func(rec *latencies, start int64) error

// counter is a per-worker completion count on its own cache line, so the
// sampler can read progress without the workers contending.
type counter struct {
	n atomic.Int64
	_ [56]byte
}

// closedResult is one closed-loop pass.
type closedResult struct {
	ops     int64
	seconds float64
	// rates holds the throughput of each sampling chunk.
	rates []float64
	lat   latencies // per-call latencies, when the pass was timed
	errs  []error
}

// opsPerSec is the pass's throughput: the upper quartile of its chunk
// rates. Interference from outside the process only ever slows a chunk, so
// the faster chunks are the ones that measure the system; a change to the
// system itself moves every chunk and so still moves the result. A pass
// too short for two chunks reports its overall rate.
func (r closedResult) opsPerSec() float64 {
	if len(r.rates) < 2 {
		return float64(r.ops) / r.seconds
	}
	_, _, q3 := quartiles(r.rates)
	return q3
}

// closedLoop runs every worker's step back to back for dur, rounded down to
// whole sampling chunks (at least one): each worker
// issues its next operation only when the previous one has completed. A
// step completes perStep operations. With every > 0 it also times the calls
// of one step in every (each worker's 1st, every+1-th, ...), which costs two
// or three clock reads per timed step; every == 0 times nothing.
func closedLoop(steps []step, perStep int64, dur time.Duration, every int) closedResult {
	var (
		stop  atomic.Bool
		wg    sync.WaitGroup
		done  = make([]counter, len(steps))
		lats  = make([]latencies, len(steps))
		errs  = make([]error, len(steps))
		start = now()
	)
	for w, st := range steps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				var (
					rec *latencies
					t   int64
				)
				if every > 0 && i%every == 0 {
					rec, t = &lats[w], now()
				}
				if err := st(rec, t); err != nil {
					errs[w] = err
					return
				}
				done[w].n.Add(perStep)
			}
		}()
	}
	total := func() int64 {
		var n int64
		for i := range done {
			n += done[i].n.Load()
		}
		return n
	}
	var res closedResult
	prevT, prevN := start, int64(0)
	for range max(1, dur/chunk) {
		time.Sleep(chunk)
		t, n := now(), total()
		if t > prevT {
			res.rates = append(res.rates, float64(n-prevN)/(float64(t-prevT)/1e9))
		}
		prevT, prevN = t, n
	}
	stop.Store(true)
	wg.Wait()
	res.ops = total()
	res.seconds = float64(now()-start) / 1e9
	for w := range steps {
		res.lat.merge(&lats[w])
		if errs[w] != nil {
			res.errs = append(res.errs, errs[w])
		}
	}
	return res
}

// openResult is one open-loop pass.
type openResult struct {
	ops  int64
	lat  latencies
	late []float64 // how far each send trailed its due time, ns
	errs []error
}

// openLoop offers each worker a Poisson arrival stream at rate/len(steps)
// operations per second for dur, seeded so that a seed gives the same
// schedule. Each operation's latency starts where startRule says, so waits
// the system under test caused count and the generator's own lateness
// does not. With spin set the workers busy-wait for each due time instead
// of sleeping: right for in-process workloads, where nothing else needs
// the CPU and a sleep would overshoot by about a millisecond, wrong for a
// loopback server, which needs the CPU the spinning would take.
func openLoop(steps []step, rate float64, dur time.Duration, seed uint64, spin bool) openResult {
	perWorker := rate / float64(len(steps))
	capHint := min(int(perWorker*dur.Seconds()*1.2)+16, maxSamples)
	var (
		wg    sync.WaitGroup
		lats  = make([]latencies, len(steps))
		lates = make([][]float64, len(steps))
		ops   = make([]int64, len(steps))
		errs  = make([]error, len(steps))
		base  = now()
	)
	for w, st := range steps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(w)+1))
			rec := &lats[w]
			rec.get.xs = make([]float64, 0, capHint)
			rec.set.xs = make([]float64, 0, capHint)
			late := make([]float64, 0, capHint)
			var rule startRule
			due := base
			for {
				due += int64(rng.ExpFloat64() / perWorker * 1e9)
				if due-base >= int64(dur) {
					break
				}
				sent := now()
				for ; sent < due && spin; sent = now() {
				}
				if d := due - sent; d > 0 {
					time.Sleep(time.Duration(d))
					sent = now()
				}
				late = append(late, float64(max(sent-due, 0)))
				origin := rule.origin(due, sent)
				err := st(rec, origin)
				rule.done(origin, now())
				ops[w]++
				if err != nil {
					errs[w] = err
					break
				}
			}
			lates[w] = late
		}()
	}
	wg.Wait()
	var res openResult
	for w := range steps {
		res.ops += ops[w]
		res.lat.merge(&lats[w])
		res.late = append(res.late, lates[w]...)
		if errs[w] != nil {
			res.errs = append(res.errs, errs[w])
		}
	}
	return res
}

// startRule decides where an open-loop request's latency starts. When the
// worker was still waiting on its previous reply at a request's due time,
// the system under test held the request back, so the wait counts (the
// coordinated-omission correction). When the worker was idle, the request
// is timed from its actual send, so the generator's own timer overshoot is
// not charged. "Still waiting" is judged on the timeline a punctual
// generator would have produced, where each request completes its measured
// latency after its due time; a backlog the generator built by
// oversleeping therefore costs nothing, while one a slow reply built keeps
// counting until it drains.
type startRule struct {
	due   int64 // due time of the request in flight
	vdone int64 // when the previous request completed on the punctual timeline
}

// origin returns the latency origin of a request due at due and sent at
// sent: the send, moved back by however long the request would have waited
// for its predecessor's reply.
func (r *startRule) origin(due, sent int64) int64 {
	r.due = due
	return sent - max(r.vdone-due, 0)
}

// done records that the request timed from origin completed at done.
func (r *startRule) done(origin, done int64) {
	r.vdone = r.due + done - origin
}

// lateP99us is the 99th percentile of how late the generator sent, in µs.
func lateP99us(late []float64) float64 {
	if len(late) == 0 {
		return math.NaN()
	}
	return percentile(sortedCopy(late), 0.99) / 1e3
}
