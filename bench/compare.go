package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of -compare, one per (workload, end-to-end metric).
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved" // run-to-run spread wider than the bound
	verdictMissing    = "missing"    // on one side only
)

// verdict applies a metric's direction and bound to two summaries. A
// metric whose own spread (inter-quartile distance over median, on
// either side) exceeds the bound cannot resolve a change of that size
// and is reported as unresolved, never as unchanged. Better means the
// medians differ by more than the old side's spread.
func verdict(d metricDef, old, new summaryRow) (string, float64) {
	if old.Median == 0 {
		return verdictUnresolved, 0
	}
	change := (new.Median - old.Median) / math.Abs(old.Median) // signed, as a share of old
	worse := change
	if d.Better == higher {
		worse = -change
	}
	switch {
	case math.Max(old.spread(), new.spread()) > d.Bound:
		return verdictUnresolved, change
	case worse > d.Bound:
		return verdictWorse, change
	case worse < 0 && -worse > old.spread():
		return verdictBetter, change
	default:
		return verdictWithin, change
	}
}

// compareFiles prints one row per (workload, metric) and returns the
// process exit code: non-zero only when some metric is worse.
func compareFiles(benchPath, oldPath, newPath string, w io.Writer) int {
	def, err := loadBenchmarkJSON(benchPath)
	if err != nil {
		return fail(err)
	}
	oldF, err := readResultFile(oldPath)
	if err != nil {
		return fail(err)
	}
	newF, err := readResultFile(newPath)
	if err != nil {
		return fail(err)
	}
	index := func(rows []summaryRow) map[[2]string]summaryRow {
		m := map[[2]string]summaryRow{}
		for _, r := range rows {
			m[[2]string{r.Workload, r.Metric}] = r
		}
		return m
	}
	oldRows, newRows := index(oldF.Summary), index(newF.Summary)
	anyWorse := false
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "old median", "new median", "change", "bound", "verdict")
	for _, wl := range def.Workloads {
		for _, d := range def.EndToEnd {
			k := [2]string{wl.Name, d.Name}
			o, haveO := oldRows[k]
			n, haveN := newRows[k]
			if !haveO || !haveN {
				if haveO != haveN {
					fmt.Fprintf(w, "%-14s %-16s %14s %14s %9s %7s  %s\n", wl.Name, d.Name, "-", "-", "-", "-", verdictMissing)
				}
				continue
			}
			v, change := verdict(d, o, n)
			anyWorse = anyWorse || v == verdictWorse
			fmt.Fprintf(w, "%-14s %-16s %14.4f %14.4f %+8.1f%% %6.1f%%  %s (n=%d/%d)\n",
				wl.Name, d.Name, o.Median, n.Median, 100*change, 100*d.Bound, v, o.N, n.N)
		}
	}
	if anyWorse {
		return 1
	}
	return 0
}

// printSummary is -repeat's table: median and quartiles per metric, and
// the spread the bounds are calibrated against.
func printSummary(w io.Writer, rows []summaryRow) {
	fmt.Fprintf(w, "%-14s %-32s %5s %14s %14s %14s %8s\n", "workload", "metric", "n", "q1", "median", "q3", "spread")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-32s %5d %14.4f %14.4f %14.4f %7.1f%%\n", r.Workload, r.Metric, r.N, r.Q1, r.Median, r.Q3, 100*r.spread())
	}
}
