package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

func keysOf(t *testing.T, raw json.RawMessage) []string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestResultSchemaPinned fails when result.json changes shape without a
// resultSchema bump: old and new files must stay comparable, or refuse
// each other loudly.
func TestResultSchemaPinned(t *testing.T) {
	if resultSchema != 1 {
		t.Fatalf("resultSchema is %d: update the pinned key lists below and README.md's migration note together with it", resultSchema)
	}
	r := newResult("read-direct", 1, 12, false)
	r.set("lat_p50_us", 123.4)
	r.note("a note")
	path := filepath.Join(t.TempDir(), "result.json")
	if err := writeResultFile(path, resultFile{Schema: resultSchema, Seed: 1, Seconds: 12, Nproc: 2, Caveats: caveats, Runs: []*runResult{r}, Summary: summarize([]*runResult{r})}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var top struct {
		Runs    []json.RawMessage `json:"runs"`
		Summary []json.RawMessage `json:"summary"`
	}
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	for what, c := range map[string]struct{ got, want []string }{
		"file":    {keysOf(t, raw), []string{"caveats", "nproc", "runs", "schema", "seconds", "seed", "summary"}},
		"run":     {keysOf(t, top.Runs[0]), []string{"attempted", "correct", "failed", "metrics", "notes", "seconds", "seed", "trace", "workload"}},
		"summary": {keysOf(t, top.Summary[0]), []string{"median", "metric", "n", "q1", "q3", "unit", "workload"}},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s keys %v, pinned %v", what, c.got, c.want)
		}
	}
	back, err := readResultFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if m := back.Runs[0].Metrics["lat_p50_us"]; m.Value != 123.4 || m.Unit != "us" {
		t.Errorf("metric read back as %+v", m)
	}
	// A file of another schema version is refused, not misread.
	var anyFile map[string]any
	json.Unmarshal(raw, &anyFile) //nolint:errcheck // parsed above
	anyFile["schema"] = resultSchema + 1
	if err := writeJSON(path, anyFile); err != nil {
		t.Fatal(err)
	}
	if _, err := readResultFile(path); err == nil {
		t.Error("a result file of another schema version was accepted")
	}
}

func TestContractLine(t *testing.T) {
	r := newResult("paper-sim", 1, 12, false)
	r.Attempted = 10
	r.fill(endToEnd)
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(r.contractLine()), &line); err != nil {
		t.Fatal(err)
	}
	if got, want := keysOf(t, json.RawMessage(r.contractLine())), []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(got, want) {
		t.Errorf("contract line keys %v, want exactly %v", got, want)
	}
	var metrics map[string]metric
	json.Unmarshal(line["metrics"], &metrics) //nolint:errcheck // parsed above
	if len(metrics) != len(endToEnd) {
		t.Errorf("contract line carries %d metrics, want every one of the %d end-to-end metrics", len(metrics), len(endToEnd))
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps the committed BENCHMARK.json
// equal to what this package defines, and inside the driver's limits.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	committed, err := loadBenchmarkJSON(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if want := benchmarkJSON(); !reflect.DeepEqual(committed, want) {
		t.Errorf("BENCHMARK.json differs from the catalogue; regenerate it with: go run ./bench -print-benchmark-json > BENCHMARK.json\n got %+v\nwant %+v", committed, want)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("unit %q of %s is malformed", u, n)
		}
	}
	for _, w := range workloads {
		check(w.Name, "")
		if len(w.Why) > 200 {
			t.Errorf("why of %s is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("bound %v of %s outside (0, 0.25]", m.Bound, m.Name)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !hasSetup {
		t.Error("setup_s (unit s, lower is better) must be an end-to-end metric")
	}
	for _, m := range perLayer {
		check(m.Name, m.Unit)
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s carries a bound", m.Name)
		}
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end / %d per-layer metrics exceed 16 / 128", len(endToEnd), len(perLayer))
	}
	// 4 + 22 runs per workload, each with its set-up, inside 3420 s: the
	// measured share alone must leave room for set-up, cycles and builds.
	if runs := 4 + 22*len(workloads); runs*runSeconds > 3420/2 {
		t.Errorf("%d runs of %d s use more than half the driver's 3420 s before any set-up", runs, runSeconds)
	}
}
