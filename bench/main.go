// Command bench is the repository's one benchmark: four workloads, seven
// end-to-end metrics measured with tracing off, and a per-layer budget
// measured from outside in a separate traced run. See README.md.
//
// Driver contract (BENCHMARK.json):
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// runs one workload once and prints one JSON object on the last line of
// stdout. Without --workload every workload runs in turn and the result
// goes to bench/out/result.json as well.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "run only this workload and end with the driver's JSON line (default: all, in turn)")
		seed     = flag.Int64("seed", 1, "workload seed: every generated key and request sequence derives from it")
		seconds  = flag.Int("seconds", runSeconds, "how long one run measures; phase lengths are shares of it")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run plus bench/out/trace-<workload>.json")
		repeat   = flag.Int("repeat", 1, "run the whole set N times, interleaving workloads (run i uses seed+i), and report median and quartiles")
		compare  = flag.Bool("compare", false, "compare two result files: bench -compare old.json new.json")
		benchDef = flag.String("benchmark-json", "BENCHMARK.json", "where -compare reads directions and bounds")
		nodeBin  = flag.String("node-bin", "", "prebuilt cmd/discoverynode (default: build it into .bench_build/)")
		buildDir = flag.String("build-dir", ".bench_build", "scratch for binaries, data dirs and temp files; inside the checkout")
		outDir   = flag.String("out", filepath.Join("bench", "out"), "where result.json and trace-<workload>.json go")
		goldens  = flag.Bool("update-goldens", false, "recompute bench/goldens.json from the current simulator, then exit")
		printDef = flag.Bool("print-benchmark-json", false, "print BENCHMARK.json as this binary defines it, then exit")
	)
	flag.Parse()

	if *printDef {
		b, _ := json.MarshalIndent(benchmarkJSON(), "", "  ")
		fmt.Println(string(b))
		return 0
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare old.json new.json")
			return 2
		}
		return compareFiles(*benchDef, flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	cfg, err := loadConfig()
	if err != nil {
		return fail(err)
	}
	if *goldens {
		return fail(updateGoldens(cfg, filepath.Join("bench", "goldens.json")))
	}
	if *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -repeat must be positive, -trace 0 or 1")
		return 2
	}
	names := []string{}
	for _, w := range workloads {
		if *workload == "" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}

	// The load generator must not be given more threads than the host
	// has cores; the nodes share the same cores.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}

	work, err := os.MkdirTemp(mustDir(*buildDir), "run-")
	if err != nil {
		return fail(err)
	}
	e := env{cfg: cfg, workDir: work, outDir: *outDir, nodeBin: *nodeBin}
	if err := json.Unmarshal(goldensJSON, &e.goldens); err != nil {
		return fail(fmt.Errorf("goldens.json: %w", err))
	}
	// Every exit path — return, failure, SIGINT/SIGTERM — kills the node
	// processes and removes the data dirs.
	cleanup := func() {
		reapAll()
		os.RemoveAll(work)
	}
	defer cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()

	if e.nodeBin == "" {
		// Built before any timer starts.
		e.nodeBin, err = filepath.Abs(filepath.Join(*buildDir, "discoverynode"))
		if err != nil {
			return fail(err)
		}
		if out, err := exec.Command("go", "build", "-o", e.nodeBin, "./cmd/discoverynode").CombinedOutput(); err != nil {
			return fail(fmt.Errorf("go build ./cmd/discoverynode: %v\n%s", err, out))
		}
	}

	var runs []*runResult
	ok := true
	for i := 0; i < *repeat; i++ {
		for _, name := range names {
			res := e.runWorkload(name, *seed+int64(i), *seconds, *trace == 1)
			runs = append(runs, res)
			res.print(os.Stdout)
			ok = ok && res.Correct
		}
	}

	if *workload == "" || *repeat > 1 {
		rf := resultFile{Schema: resultSchema, Seed: *seed, Seconds: *seconds, Nproc: runtime.NumCPU(), Caveats: caveats, Runs: runs, Summary: summarize(runs)}
		if *repeat > 1 {
			printSummary(os.Stdout, rf.Summary)
		}
		path := filepath.Join(mustDir(*outDir), "result.json")
		if err := writeResultFile(path, rf); err != nil {
			return fail(err)
		}
		fmt.Printf("wrote %s\n", path)
	}
	for _, c := range caveats {
		fmt.Println("caveat:", c)
	}
	if *workload != "" && *repeat == 1 {
		fmt.Println(runs[0].contractLine())
	}
	if !ok {
		return 1
	}
	return 0
}

func fail(err error) int {
	if err == nil {
		return 0
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

func mustDir(path string) string {
	os.MkdirAll(path, 0o755) //nolint:errcheck // the next use of the directory reports it
	return path
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runWorkload runs one workload once. A run that cannot complete is
// reported as incorrect with every metric present, so the caller's
// tables and exit code stay uniform.
func (e env) runWorkload(name string, seed int64, seconds int, traced bool) *runResult {
	return reported(e.execute(name, seed, seconds, traced))
}

// reported keeps the metrics the run kind reports — end-to-end with
// tracing off, per-layer from a traced run — and makes every one of them
// present.
func reported(res *runResult) *runResult {
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	res.only(defs)
	res.fill(defs)
	return res
}

// execute runs one workload once and returns everything it measured.
func (e env) execute(name string, seed int64, seconds int, traced bool) *runResult {
	res := newResult(name, seed, seconds, traced)
	var rec *recorder
	if traced {
		rec = &recorder{}
	}
	var err error
	if spec, serving := e.cfg.Serving[name]; serving {
		r := &servingRun{env: e, spec: spec, seed: seed, seconds: seconds, rec: rec, res: res}
		if err = r.run(); err == nil && traced {
			(&probeSet{seed: seed, mix: spec.Mix, size: e.cfg.ValueBytes, workDir: e.workDir, rec: rec, res: res, scale: e.cfg.ProbeScale}).runServingProbes()
		}
	} else {
		err = (&paperRun{env: e, seed: seed, seconds: seconds, rec: rec, res: res}).run()
	}
	if err != nil {
		res.violate("run aborted: %v", err)
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	if !res.Correct && res.Failed == 0 {
		res.Failed = 1
	}
	if traced {
		path := filepath.Join(mustDir(e.outDir), "trace-"+name+".json")
		meta := map[string]any{"workload": name, "seed": seed, "seconds": seconds, "self_us_p50_by_name": rec.selfByName()}
		if werr := rec.write(path, meta); werr != nil {
			res.violate("span file: %v", werr)
		} else {
			res.note("spans written to %s", path)
		}
	}
	return res
}
