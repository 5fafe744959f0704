package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// tinyConfig shrinks workloads.json to hundreds of requests: the smoke
// runs check the plumbing (every metric computed, the correctness gate
// wired, processes reaped), not the numbers.
func tinyConfig(t *testing.T) config {
	t.Helper()
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.SetupsPerRun = 1
	cfg.WarmupLookups = 50
	cfg.AuditSample = 40
	cfg.AuditPasses = 1
	cfg.TraceOneIn = 2
	cfg.ProbeScale = 0.01
	for name, s := range cfg.Serving {
		s.PreloadKeys = 120
		if s.DeletePool > 0 {
			s.DeletePool = 60
		}
		s.OpenRate = 300
		s.RestartCycles = 1
		s.RestartKeys = 30
		if s.RestartLookupRate > 0 {
			s.RestartLookupRate = 100
		}
		cfg.Serving[name] = s
	}
	p := &cfg.PaperSim
	p.OverlayNodes, p.RandomDegree, p.InsertKeys, p.OpenRate, p.Rebuilds, p.ReplayLookups = 300, 20, 60, 1000, 1, 40
	p.Fig1 = perturbSpec{Scale: "quick", Settings: []string{"1:1"}, Probs: []float64{0.5}}
	p.Table2 = staticSpec{Sizes: []int{200}, GraphsPerSize: 1, RequestsPerGraph: 10, RandomDegree: 20}
	p.Fig11 = perturbSpec{Scale: "quick", Settings: []string{"1:1"}, Probs: []float64{0.5}}
	p.Fig12 = perturbSpec{Scale: "quick", Probs: []float64{0.5}}
	return cfg
}

func smokeEnv(t *testing.T) env {
	t.Helper()
	dir := t.TempDir()
	bin := filepath.Join(dir, "discoverynode")
	if out, err := exec.Command("go", "build", "-o", bin, "discovery/cmd/discoverynode").CombinedOutput(); err != nil {
		t.Fatalf("go build discoverynode: %v\n%s", err, out)
	}
	e := env{cfg: tinyConfig(t), nodeBin: bin, workDir: dir, outDir: filepath.Join(dir, "out"), goldens: map[string]string{}}
	// The tiny experiment list has no committed golden; pin it to itself
	// so the gate is exercised and still passes.
	expSeed := 1 + smokeSeed%int64(e.cfg.PaperSim.GoldenSeeds)
	tables, _, err := runExperiments(e.cfg.PaperSim, expSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.goldens[fmt.Sprint(expSeed)] = hashTables(tables)
	return e
}

const smokeSeed = 3

// TestSmokeEveryWorkload runs each workload once, traced, at tiny scale
// and asserts that every named metric was computed — a traced run
// measures the end-to-end quantities too, it just does not report them.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real node processes")
	}
	e := smokeEnv(t)
	t.Cleanup(reapAll)
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res := e.execute(w.Name, smokeSeed, 1, true)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("run incorrect: attempted %d failed %d notes %q", res.Attempted, res.Failed, res.Notes)
			}
			if res.Attempted < 100 {
				t.Errorf("only %d operations attempted", res.Attempted)
			}
			for _, m := range endToEnd {
				got, ok := res.Metrics[m.Name]
				// /proc counts CPU in 10 ms ticks; a few hundred lookups
				// can cost the nodes less than one.
				zeroOK := m.Name == "cpu_us_per_req"
				if !ok || got.Value < 0 || (got.Value == 0 && !zeroOK) || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("end-to-end %s = %+v (present %v): want a positive finite value", m.Name, got, ok)
				}
				if got.Unit != m.Unit {
					t.Errorf("%s carries unit %q, want %q", m.Name, got.Unit, m.Unit)
				}
			}
			_, serving := e.cfg.Serving[w.Name]
			computed := 0
			for _, m := range perLayer {
				got, ok := res.Metrics[m.Name]
				if ok && (math.IsNaN(got.Value) || math.IsInf(got.Value, 0)) {
					t.Errorf("per-layer %s = %v", m.Name, got.Value)
				}
				if ok {
					computed++
				}
			}
			// Serving workloads compute everything but the eleven
			// simulator metrics; paper-sim computes those, the
			// generator's own and the two tail latencies.
			if want := len(perLayer) - 11; serving && computed != want {
				t.Errorf("%d per-layer metrics computed, want %d", computed, want)
			}
			if want := 11 + 4; !serving && computed != want {
				t.Errorf("%d per-layer metrics computed, want %d", computed, want)
			}
			if _, err := os.Stat(filepath.Join(e.outDir, "trace-"+w.Name+".json")); err != nil {
				t.Errorf("span file: %v", err)
			}

			// The reported view: exactly the catalogue's names.
			if view := reported(res); len(view.Metrics) != len(perLayer) {
				t.Errorf("traced view has %d metrics, want all %d per-layer names", len(view.Metrics), len(perLayer))
			}
		})
	}
	liveMu.Lock()
	left := len(liveClusters)
	liveMu.Unlock()
	if left != 0 {
		t.Errorf("%d clusters still alive after the runs", left)
	}
}

// TestExactCountsRepeat: the counts later changes may rest a claim on
// must read the same, to the last digit, on every run of one seed.
func TestExactCountsRepeat(t *testing.T) {
	run := func() map[string]metric {
		res := newResult("read-direct", smokeSeed, 1, true)
		p := &probeSet{seed: smokeSeed, mix: Mix{Lookup: 0.9, Insert: 0.1}, size: 64, workDir: t.TempDir(), res: res, scale: 0.05}
		if err := p.poolProbe(0); err != nil {
			t.Fatal(err)
		}
		if err := p.walProbe(0); err != nil {
			t.Fatal(err)
		}
		return res.Metrics
	}
	a, b := run(), run()
	for _, name := range []string{"pool.msgs_per_lookup", "wal.bytes_per_user_byte"} {
		if a[name].Value <= 0 || a[name].Value != b[name].Value {
			t.Errorf("%s read %v then %v: want one positive value", name, a[name].Value, b[name].Value)
		}
	}
}
