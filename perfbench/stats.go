package main

import (
	"math"
	"sort"
)

// percentile returns the p-th quantile (0 <= p <= 1) of an ascending slice,
// interpolating linearly between the two closest ranks (numpy's default).
// It returns NaN for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns xs in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for an empty slice.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

// quartiles returns the three cut points that split xs into four groups,
// computed as Python's statistics.quantiles(xs, n=4) does with its default
// "exclusive" method, so a spread printed here matches the one a reader
// recomputes from the printed values. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		// Exclusive method: 1-based rank i*(n+1)/4, with the bracketing
		// pair clamped to the data (so small samples extrapolate, exactly
		// as Python does).
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// mean returns the arithmetic mean of xs, or NaN for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// frac returns a/b, or 0 when b is 0: the useful share of no attempts.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// maxSamples bounds the latency samples one worker keeps per kind.
const maxSamples = 1 << 18

// samples holds latency samples spread evenly over a pass: every one until
// maxSamples are held, then every other one is dropped and only every
// stride-th later sample is kept, so memory stays bounded however long the
// pass runs.
type samples struct {
	xs     []float64
	n      int64 // samples offered
	stride int64
}

func (s *samples) add(x float64) {
	if s.stride == 0 {
		s.stride = 1
	}
	if s.n++; s.n%s.stride != 0 {
		return
	}
	s.xs = append(s.xs, x)
	if len(s.xs) == maxSamples {
		for i := range maxSamples / 2 {
			s.xs[i] = s.xs[2*i+1]
		}
		s.xs = s.xs[:maxSamples/2]
		s.stride *= 2
	}
}

// latencies is one worker's record of operation latencies in nanoseconds,
// split by operation kind. hit holds the GETs that hit again, for workers
// that tell hits apart.
type latencies struct {
	get, set, hit samples
}

func (l *latencies) merge(o *latencies) {
	l.get.xs = append(l.get.xs, o.get.xs...)
	l.set.xs = append(l.set.xs, o.set.xs...)
	l.hit.xs = append(l.hit.xs, o.hit.xs...)
}

// dist summarizes one latency sample set.
type dist struct {
	n             int
	p50, p99, avg float64 // nanoseconds
}

func summarize(ns []float64) dist {
	s := sortedCopy(ns)
	return dist{n: len(s), p50: percentile(s, 0.50), p99: percentile(s, 0.99), avg: mean(s)}
}
