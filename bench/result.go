package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
)

// resultSchema versions bench/out/result.json. Bump it only with a
// migration note in README.md: -compare refuses files of another
// version, so the trajectory stays comparable or visibly breaks.
const resultSchema = 1

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Notes carry what a number alone cannot: sample counts, which
	// percentile lat_pmax is, correctness violations.
	Notes []string `json:"notes,omitempty"`

	mu sync.Mutex
}

func newResult(workload string, seed int64, seconds int, trace bool) *runResult {
	return &runResult{Workload: workload, Seed: seed, Seconds: seconds, Trace: trace, Correct: true, Metrics: map[string]metric{}}
}

func (r *runResult) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.mu.Lock()
	r.Metrics[name] = metric{v, unitOf(name)}
	r.mu.Unlock()
}

func (r *runResult) note(format string, args ...any) {
	r.mu.Lock()
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// violate records a correctness violation: the run is incorrect and the
// command will exit non-zero. Only the first few are spelled out.
func (r *runResult) violate(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Correct = false
	if len(r.Notes) < 40 {
		r.Notes = append(r.Notes, "VIOLATION: "+fmt.Sprintf(format, args...))
	}
}

// fill makes sure every metric of defs is present: a traced run prints
// every per-layer name on every workload, and a layer a workload never
// enters reads 0.
func (r *runResult) fill(defs []metricDef) {
	for _, d := range defs {
		if _, ok := r.Metrics[d.Name]; !ok {
			r.Metrics[d.Name] = metric{0, d.Unit}
		}
	}
}

// only drops every metric not in defs.
func (r *runResult) only(defs []metricDef) {
	keep := map[string]bool{}
	for _, d := range defs {
		keep[d.Name] = true
	}
	for k := range r.Metrics {
		if !keep[k] {
			delete(r.Metrics, k)
		}
	}
}

// contractLine is the one JSON object the driver reads from the last
// line of stdout.
func (r *runResult) contractLine() string {
	b, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	return string(b)
}

// print writes the human-readable table of one run.
func (r *runResult) print(w io.Writer) {
	kind := "end-to-end (tracing off)"
	if r.Trace {
		kind = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "== %s  seed %d  %d s  %s\n", r.Workload, r.Seed, r.Seconds, kind)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  correct %v\n", r.Attempted, r.Failed, r.Correct)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
}

// summaryRow is one (workload, metric) over the runs of a result file.
type summaryRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	N        int     `json:"n"`
	Median   float64 `json:"median"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
}

// spread is the inter-quartile distance as a share of the median: the
// run-to-run noise every bound is set against.
func (r summaryRow) spread() float64 {
	if r.Median == 0 {
		return 0
	}
	return (r.Q3 - r.Q1) / math.Abs(r.Median)
}

// resultFile is bench/out/result.json.
type resultFile struct {
	Schema  int          `json:"schema"`
	Seed    int64        `json:"seed"`
	Seconds int          `json:"seconds"`
	Nproc   int          `json:"nproc"`
	Caveats []string     `json:"caveats"`
	Runs    []*runResult `json:"runs"`
	Summary []summaryRow `json:"summary"`
}

// caveats travel with every result so a number is never read without
// them.
var caveats = []string{
	"all traffic crossed loopback between processes on one host",
	"fsync latency is this sandbox's filesystem, not a storage device",
	"load generator and the three nodes shared the host's cores",
}

// summarize folds runs into one row per (workload, metric), in
// catalogue order.
func summarize(runs []*runResult) []summaryRow {
	vals := map[[2]string][]float64{}
	for _, r := range runs {
		for n, m := range r.Metrics {
			k := [2]string{r.Workload, n}
			vals[k] = append(vals[k], m.Value)
		}
	}
	var out []summaryRow
	for _, w := range workloads {
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				v := vals[[2]string{w.Name, d.Name}]
				if len(v) == 0 {
					continue
				}
				q1, q2, q3 := quartiles(v)
				out = append(out, summaryRow{w.Name, d.Name, d.Unit, len(v), q2, q1, q3})
			}
		}
	}
	return out
}

func writeResultFile(path string, rf resultFile) error { return writeJSON(path, rf) }

func readResultFile(path string) (resultFile, error) {
	var rf resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(b, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Schema != resultSchema {
		return rf, fmt.Errorf("%s: result schema %d, this binary reads %d", path, rf.Schema, resultSchema)
	}
	return rf, nil
}
