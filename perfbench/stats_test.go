package main

import (
	"math"
	"testing"
)

func TestPercentileInterpolates(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.9, 46}, {0.99, 49.6}, {1, 50},
	} {
		if got := percentile(s, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", s, c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one value = %v, want 7", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of no values = %v, want NaN", got)
	}
}

func TestMedianDoesNotReorderInput(t *testing.T) {
	xs := []float64{5, 1, 4, 2}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("odd median = %v, want 5", got)
	}
	if xs[0] != 5 || xs[3] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// TestQuartilesMatchPython pins the quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns, extrapolation on small samples
// included.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3}, [3]float64{1.5, 5, 9.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{4, 4, 4, 4, 4}, [3]float64{4, 4, 4}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if q1, _, _ := quartiles([]float64{3}); !math.IsNaN(q1) {
		t.Errorf("quartiles of one value = %v, want NaN", q1)
	}
}

func TestSummarize(t *testing.T) {
	ns := make([]float64, 0, 1000)
	for i := 1000; i >= 1; i-- {
		ns = append(ns, float64(i))
	}
	d := summarize(ns)
	if d.n != 1000 || d.p50 != 500.5 || math.Abs(d.p99-990.01) > 1e-9 || d.avg != 500.5 {
		t.Errorf("summarize = %+v", d)
	}
}
