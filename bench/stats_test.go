package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestPercentileNearestRank(t *testing.T) {
	v := seq(100)
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {0.5, 1}, {99.01, 100}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestHighestSupportedKeepsTenSamplesBeyond(t *testing.T) {
	// 1000 samples: the value reported must have exactly 10 above it.
	p, v := highestSupported(seq(1000))
	if v != 990 || math.Abs(p-99.0) > 1e-9 {
		t.Errorf("highestSupported(1..1000) = p%v value %v, want p99 value 990", p, v)
	}
	// 100 000 samples reach p99.99.
	p, v = highestSupported(seq(100000))
	if v != 99990 || math.Abs(p-99.99) > 1e-9 {
		t.Errorf("highestSupported(1..100000) = p%v value %v, want p99.99 value 99990", p, v)
	}
	// Too few samples to support any tail: the median.
	if p, v = highestSupported(seq(15)); p != 50 || v != 8 {
		t.Errorf("highestSupported(1..15) = p%v value %v, want the median", p, v)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4)
// (exclusive method), which is what the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		// python3 -c "import statistics as s; print(s.quantiles([1,2,3,4,5,6,7,8,9,10], n=4))"
		{seq(10), 2.75, 5.5, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 3.5, 5.25},
		{[]float64{10, 20}, 7.5, 15, 22.5}, // clamps and extrapolates, as Python does
		{seq(5), 1.5, 3, 4.5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q2-c.q2) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	q1, q2, q3 := quartiles(seq(10))
	if got := (summaryRow{Q1: q1, Median: q2, Q3: q3}).spread(); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestQuietQuartilesAreMeasuredValues(t *testing.T) {
	// Nearest rank: never between two values, never beyond the extremes.
	for _, c := range []struct {
		v         []float64
		low, high float64
	}{
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1, 4, 2, 3}, 2, 4},
		{seq(7), 2, 6},
		{seq(12), 3, 9},
		{[]float64{8}, 8, 8},
	} {
		if low, high := quietLow(c.v), quietHigh(c.v); low != c.low || high != c.high {
			t.Errorf("quietLow/quietHigh(%v) = %v/%v, want %v/%v", c.v, low, high, c.low, c.high)
		}
	}
}
