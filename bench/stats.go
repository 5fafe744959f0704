package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (p in (0,100]) of
// sorted, which must be ascending. Raw samples are kept and sorted
// rather than bucketed: metrics.Histogram's 12.5 %-wide buckets would
// quantise a median into ~9 % steps and flip a 10 % regression bound.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// minBeyond is how many samples must lie above a reported tail
// percentile for it to be more than one outlier's position.
const minBeyond = 10

// highestSupported returns the highest percentile of sorted that still
// has minBeyond samples beyond it, and its value. With too few samples
// it falls back to the median.
func highestSupported(sorted []float64) (p, value float64) {
	n := len(sorted)
	if n <= 2*minBeyond {
		return 50, percentile(sorted, 50)
	}
	idx := n - minBeyond - 1 // minBeyond samples sit strictly above idx
	return 100 * float64(idx+1) / float64(n), sorted[idx]
}

// sortedCopy returns an ascending copy of v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

// quietLow and quietHigh summarise the repeated parts of one run — its
// one-second windows, restart cycles, audit passes — by the quartile on
// the better side: the lower quartile of times, the upper quartile of
// rates (nearest rank, so always a value that was measured). On a host
// whose cores are shared, interference is one-sided: a neighbour only
// ever takes time away, in bursts of five to fifteen seconds here. A
// median over a run's parts follows those bursts and read 23-31 % apart
// between runs of the same code; the better quartile stays with the parts
// the neighbour left alone. A change to the program moves every part, so
// it moves the quartile as it moves the median. Tails and stalls are not
// read from these: slo_ok_ratio, lat_p99_us and lat_pmax trim nothing.
func quietLow(v []float64) float64  { return percentile(sortedCopy(v), 25) }
func quietHigh(v []float64) float64 { return percentile(sortedCopy(v), 75) }

// quartiles returns (q1, median, q3) of v the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what
// the acceptance check for run-to-run spread uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}
