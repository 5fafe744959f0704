package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	if s.N() != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Error("zero-value Sample not empty")
	}
	for _, v := range []float64{4, 2, 8, 6} {
		s.Add(v)
	}
	if s.N() != 4 {
		t.Errorf("N = %d, want 4", s.N())
	}
	if s.Mean() != 5 {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 8 {
		t.Errorf("Min/Max = %v/%v, want 2/8", s.Min(), s.Max())
	}
	if s.Sum() != 20 {
		t.Errorf("Sum = %v, want 20", s.Sum())
	}
	want := math.Sqrt(5) // population stddev of {4,2,8,6}
	if math.Abs(s.StdDev()-want) > 1e-12 {
		t.Errorf("StdDev = %v, want %v", s.StdDev(), want)
	}
}

func TestSampleNegativeValues(t *testing.T) {
	var s Sample
	s.Add(-3)
	s.AddInt(1)
	if s.Min() != -3 || s.Max() != 1 {
		t.Errorf("Min/Max = %v/%v, want -3/1", s.Min(), s.Max())
	}
	if s.Mean() != -1 {
		t.Errorf("Mean = %v, want -1", s.Mean())
	}
}

func TestSampleSingleObservationStdDev(t *testing.T) {
	var s Sample
	s.Add(7)
	if s.StdDev() != 0 {
		t.Errorf("StdDev of one point = %v, want 0", s.StdDev())
	}
}

func TestRate(t *testing.T) {
	var r Rate
	if r.Fraction() != 0 || r.Percent() != 0 {
		t.Error("zero-value Rate not zero")
	}
	for i := 0; i < 10; i++ {
		r.Record(i < 7)
	}
	if r.Total() != 10 || r.Successes() != 7 {
		t.Errorf("Total/Successes = %d/%d, want 10/7", r.Total(), r.Successes())
	}
	if r.Fraction() != 0.7 {
		t.Errorf("Fraction = %v, want 0.7", r.Fraction())
	}
	if r.Percent() != 70 {
		t.Errorf("Percent = %v, want 70", r.Percent())
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("alpha", 1)
	tb.AddRow("b", 22.5)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Errorf("header line = %q", lines[0])
	}
	if !strings.Contains(lines[2], "alpha") || !strings.Contains(lines[2], "1") {
		t.Errorf("row line = %q", lines[2])
	}
	// All rows align to the same width.
	if len(lines[0]) != len(lines[1]) {
		t.Errorf("separator width %d != header width %d", len(lines[1]), len(lines[0]))
	}
}

func TestTableRowPadding(t *testing.T) {
	tb := NewTable("a", "b", "c")
	tb.AddRow("only")        // short row padded
	tb.AddRow(1, 2, 3, 4, 5) // long row truncated
	out := tb.String()
	if !strings.Contains(out, "only") {
		t.Error("short row lost")
	}
	if strings.Contains(out, "4") || strings.Contains(out, "5") {
		t.Error("excess cells not truncated")
	}
}

// exactPercentile is the nearest-rank p-th percentile (p in [0,100],
// clamped) of vals, or 0 when vals is empty: the exact reference the
// Histogram property test checks bucket placement against. It sorts vals
// in place.
func exactPercentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	rank := int(math.Ceil(p / 100 * float64(len(vals))))
	return vals[min(max(rank, 1), len(vals))-1]
}

func TestDistributionPercentiles(t *testing.T) {
	// 1..100 out of order: percentiles are exact under nearest-rank.
	var vals []float64
	for i := 100; i >= 1; i-- {
		vals = append(vals, float64(i))
	}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {1, 1}, {50, 50}, {95, 95}, {99, 99}, {100, 100},
	} {
		if got := exactPercentile(vals, tc.p); got != tc.want {
			t.Errorf("P%v = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestDistributionEmpty(t *testing.T) {
	for _, p := range []float64{0, 1, 50, 99, 100} {
		if got := exactPercentile(nil, p); got != 0 {
			t.Errorf("empty P%v = %v, want 0", p, got)
		}
	}
}

func TestDistributionSingleSample(t *testing.T) {
	for _, p := range []float64{0, 0.1, 50, 99.9, 100} {
		if got := exactPercentile([]float64{-42.5}, p); got != -42.5 {
			t.Errorf("single-sample P%v = %v, want -42.5", p, got)
		}
	}
}

func TestDistributionExactBoundaryQuantiles(t *testing.T) {
	// Ten values: under nearest-rank, P(10k) must land exactly on the
	// k-th order statistic, and a hair above it must step to the next.
	d := []float64{90, 10, 50, 30, 70, 20, 100, 60, 40, 80}
	for k := 1; k <= 10; k++ {
		p := float64(k) * 10
		if got := exactPercentile(d, p); got != float64(k*10) {
			t.Errorf("P%v = %v, want %v", p, got, k*10)
		}
		if k < 10 {
			if got := exactPercentile(d, p+0.001); got != float64((k+1)*10) {
				t.Errorf("P%v = %v, want %v", p+0.001, got, (k+1)*10)
			}
		}
	}
	// Out-of-range p clamps to the extremes.
	if exactPercentile(d, -5) != 10 || exactPercentile(d, 250) != 100 {
		t.Errorf("clamped percentiles = %v/%v", exactPercentile(d, -5), exactPercentile(d, 250))
	}
	// Duplicate-heavy data: quantiles sit on the repeated value.
	e := []float64{5, 5, 5, 5, 5, 5, 5, 5, 5, 9}
	if exactPercentile(e, 50) != 5 || exactPercentile(e, 90) != 5 || exactPercentile(e, 100) != 9 {
		t.Errorf("duplicate data quantiles: P50=%v P90=%v P100=%v", exactPercentile(e, 50), exactPercentile(e, 90), exactPercentile(e, 100))
	}
}

func TestTableHeaderRowsOrdering(t *testing.T) {
	tb := NewTable("first", "second", "third")
	tb.AddRow("r0c0", "r0c1", "r0c2")
	tb.AddRow("r1c0") // padded
	tb.AddRow("r2c0", "r2c1", "r2c2", "r2c3")

	h := tb.Header()
	if len(h) != 3 || h[0] != "first" || h[1] != "second" || h[2] != "third" {
		t.Fatalf("header order = %v", h)
	}
	rows := tb.Rows()
	if len(rows) != 3 {
		t.Fatalf("Rows() returned %d rows, want 3", len(rows))
	}
	// Rows come back in insertion order, each exactly header-width.
	for i, row := range rows {
		if len(row) != 3 {
			t.Fatalf("row %d has %d cells, want 3", i, len(row))
		}
		if want := fmt.Sprintf("r%dc0", i); row[0] != want {
			t.Errorf("row %d out of order: first cell %q, want %q", i, row[0], want)
		}
	}
	if rows[1][1] != "" || rows[1][2] != "" {
		t.Errorf("short row not padded with empties: %v", rows[1])
	}
	for _, c := range rows[2] {
		if c == "r2c3" {
			t.Error("over-long row not truncated to header width")
		}
	}
	// An empty table has headers but no rows.
	empty := NewTable("solo")
	if len(empty.Rows()) != 0 || len(empty.Header()) != 1 {
		t.Errorf("empty table: %v / %v", empty.Header(), empty.Rows())
	}
}

func TestTableAccessors(t *testing.T) {
	tb := NewTable("x", "y")
	tb.AddRow(1, "two")
	h, rows := tb.Header(), tb.Rows()
	if len(h) != 2 || h[0] != "x" || h[1] != "y" {
		t.Fatalf("Header = %v", h)
	}
	if len(rows) != 1 || rows[0][0] != "1" || rows[0][1] != "two" {
		t.Fatalf("Rows = %v", rows)
	}
	// Mutating the copies must not corrupt the table.
	h[0], rows[0][0] = "mutated", "mutated"
	if got := tb.Header()[0]; got != "x" {
		t.Errorf("header aliased: %q", got)
	}
	if got := tb.Rows()[0][0]; got != "1" {
		t.Errorf("rows aliased: %q", got)
	}
}
