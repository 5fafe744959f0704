package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func row(median, q1, q3 float64) summaryRow {
	return summaryRow{N: 10, Median: median, Q1: q1, Q3: q3}
}

func TestVerdicts(t *testing.T) {
	lat := metricDef{Name: "lat_p50_us", Better: lower, Bound: 0.10}
	rps := metricDef{Name: "peak_rps", Better: higher, Bound: 0.10}
	cases := []struct {
		name     string
		d        metricDef
		old, new summaryRow
		want     string
	}{
		{"lower-is-better got 20% slower", lat, row(100, 98, 102), row(120, 118, 122), verdictWorse},
		{"lower-is-better got 20% faster", lat, row(100, 98, 102), row(80, 79, 81), verdictBetter},
		{"5% slower is inside a 10% bound", lat, row(100, 98, 102), row(105, 103, 107), verdictWithin},
		{"2% faster is inside the old side's own 4% spread", lat, row(100, 98, 102), row(98, 96, 100), verdictWithin},
		{"higher-is-better dropped 20%", rps, row(1000, 990, 1010), row(800, 790, 810), verdictWorse},
		{"higher-is-better rose 20%", rps, row(1000, 990, 1010), row(1200, 1190, 1210), verdictBetter},
		{"a 20% drop cannot be called when runs spread 30%", rps, row(1000, 850, 1150), row(800, 700, 900), verdictUnresolved},
		{"spread on the new side alone also blocks a verdict", lat, row(100, 99, 101), row(130, 100, 160), verdictUnresolved},
	}
	for _, c := range cases {
		if got, _ := verdict(c.d, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func resultWith(t *testing.T, dir, name string, values map[string][]float64) string {
	t.Helper()
	var runs []*runResult
	for i := 0; i < 5; i++ {
		r := newResult("read-direct", int64(i), 12, false)
		for m, vs := range values {
			r.set(m, vs[i])
		}
		runs = append(runs, r)
	}
	path := filepath.Join(dir, name)
	if err := writeResultFile(path, resultFile{Schema: resultSchema, Runs: runs, Summary: summarize(runs)}); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareFilesExitsNonZeroOnlyOnWorse(t *testing.T) {
	dir := t.TempDir()
	def := filepath.Join(dir, "BENCHMARK.json")
	if err := writeJSON(def, benchmarkJSON()); err != nil {
		t.Fatal(err)
	}
	base := resultWith(t, dir, "old.json", map[string][]float64{
		"lat_p50_us": {100, 101, 99, 100, 102}, "peak_rps": {1000, 1010, 990, 1005, 995}})
	same := resultWith(t, dir, "same.json", map[string][]float64{
		"lat_p50_us": {101, 102, 100, 101, 103}, "peak_rps": {1001, 1011, 991, 1006, 996}})
	slow := resultWith(t, dir, "slow.json", map[string][]float64{
		"lat_p50_us": {150, 151, 149, 150, 152}, "peak_rps": {1000, 1010, 990, 1005, 995}})
	noisy := resultWith(t, dir, "noisy.json", map[string][]float64{
		"lat_p50_us": {100, 160, 80, 140, 60}, "peak_rps": {1000, 1010, 990, 1005, 995}})

	var out bytes.Buffer
	if code := compareFiles(def, base, same, &out); code != 0 {
		t.Errorf("identical-within-noise results exit %d, want 0\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(def, base, slow, &out); code == 0 || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("a 50%% slower median exits %d, want non-zero and a worse row\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(def, base, noisy, &out); code != 0 || !strings.Contains(out.String(), verdictUnresolved) {
		t.Errorf("a metric noisier than its bound exits %d, want 0 and an unresolved row\n%s", code, out.String())
	}
	if code := compareFiles(def, base, filepath.Join(dir, "absent.json"), &out); code == 0 {
		t.Error("a missing result file must not compare clean")
	}
}
