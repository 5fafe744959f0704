// Package metrics provides the small statistical accumulators the
// experiment harness reports with: streaming means, min/max, success
// rates, and fixed-width text tables matching the paper's presentation.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Sample is a streaming accumulator over float64 observations. The zero
// value is ready to use.
type Sample struct {
	n          int
	sum, sumSq float64
	min, max   float64
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.n++
	s.sum += v
	s.sumSq += v * v
}

// AddInt records an integer observation.
func (s *Sample) AddInt(v int) { s.Add(float64(v)) }

// N returns the number of observations.
func (s *Sample) N() int { return s.n }

// Mean returns the sample mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Sum returns the total of all observations.
func (s *Sample) Sum() float64 { return s.sum }

// Min returns the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 { return s.min }

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 { return s.max }

// StdDev returns the population standard deviation, or 0 when fewer than
// two observations exist.
func (s *Sample) StdDev() float64 {
	if s.n < 2 {
		return 0
	}
	mean := s.Mean()
	v := s.sumSq/float64(s.n) - mean*mean
	if v < 0 {
		v = 0 // floating-point guard
	}
	return math.Sqrt(v)
}

// Rate tracks a success fraction. The zero value is ready to use.
type Rate struct {
	ok, total int
}

// Record adds one trial.
func (r *Rate) Record(success bool) {
	r.total++
	if success {
		r.ok++
	}
}

// Total returns the number of trials.
func (r *Rate) Total() int { return r.total }

// Successes returns the number of successful trials.
func (r *Rate) Successes() int { return r.ok }

// Fraction returns successes/total in [0,1], or 0 with no trials.
func (r *Rate) Fraction() float64 {
	if r.total == 0 {
		return 0
	}
	return float64(r.ok) / float64(r.total)
}

// Percent returns the success rate as a percentage.
func (r *Rate) Percent() float64 { return 100 * r.Fraction() }

// Table renders fixed-width text tables in the style of the paper's
// Tables 1-3. Build with NewTable, fill with AddRow, render with String.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	h := make([]string, len(header))
	copy(h, header)
	return &Table{header: h}
}

// AddRow appends a row; cells are formatted with %v. Rows shorter or
// longer than the header are padded or truncated to fit.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = fmt.Sprintf("%v", cells[i])
		}
	}
	t.rows = append(t.rows, row)
}

// Header returns a copy of the column headers, for serializers that
// export tables in machine-readable formats.
func (t *Table) Header() []string {
	return append([]string(nil), t.header...)
}

// Rows returns a copy of the formatted body rows.
func (t *Table) Rows() [][]string {
	rows := make([][]string, len(t.rows))
	for i, r := range t.rows {
		rows[i] = append([]string(nil), r...)
	}
	return rows
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
