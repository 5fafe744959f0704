package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef is one named metric of the benchmark. The lists below are
// the single place names, units and directions are written down in Go;
// BENCHMARK.json restates them for the driver and a test keeps the two
// identical.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the system would see. Every
// workload reports every one of them (the driver's contract); README.md
// says what each means on each workload. Bounds are relative shares of
// the parent's median: 0.10 at least, widened to twice the widest
// inter-quartile spread any workload showed over ten runs of the seed,
// 0.25 at most. On this host a timing's spread reaches 8-16 % over the
// twenty minutes a set of runs takes, whatever a run does within itself
// (README.md, calibration record), so all of them sit at the cap.
//
// lat_p99_us is not here: it could not be held under 0.25 (spread
// 14-21 % on a quiet host, 34-92 % on a busy one) and, as the issue
// provides, is reported with the per-layer metrics instead of gating.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"peak_rps", "req/s", higher, 0.25},
	{"lat_p50_us", "us", lower, 0.25},
	{"slo_ok_ratio", "ratio", higher, 0.02},
	{"cpu_us_per_req", "us", lower, 0.25},
	{"catchup_s", "s", lower, 0.25},
	{"repro_s", "s", lower, 0.25},
}

// perLayer are single-layer metrics, named <module>.<what>. They carry
// no bound: they explain an end-to-end movement, they do not gate.
var perLayer = []metricDef{
	// demoted from the end-to-end list: see endToEnd.
	{Name: "lat_p99_us", Unit: "us", Better: lower},
	// wire: Msg.Append / Msg.Decode over the workload's own frames.
	{Name: "wire.encode_ns", Unit: "ns", Better: lower},
	{Name: "wire.decode_ns", Unit: "ns", Better: lower},
	{Name: "wire.allocs_per_frame", Unit: "count", Better: lower},
	// pool: root Pool + internal/mpil engine, in memory.
	{Name: "pool.lookup_ns", Unit: "ns", Better: lower},
	{Name: "pool.insert_ns", Unit: "ns", Better: lower},
	{Name: "pool.delete_ns", Unit: "ns", Better: lower},
	{Name: "pool.batch64_ns_per_op", Unit: "ns", Better: lower},
	{Name: "pool.msgs_per_lookup", Unit: "count", Better: lower},
	{Name: "pool.heap_bytes_per_key", Unit: "bytes", Better: lower},
	// wal
	{Name: "wal.append_ns_per_record", Unit: "ns", Better: lower},
	{Name: "wal.batch64_ns_per_record", Unit: "ns", Better: lower},
	{Name: "wal.sync_ms_p50", Unit: "ms", Better: lower},
	{Name: "wal.bytes_per_user_byte", Unit: "ratio", Better: lower},
	{Name: "wal.fsyncs_per_record", Unit: "ratio", Better: lower},
	{Name: "wal.records_per_batch", Unit: "count", Better: higher},
	// durable / snapshot
	{Name: "durable.insert_ns", Unit: "ns", Better: lower},
	{Name: "durable.recover_records_per_s", Unit: "1/s", Better: higher},
	{Name: "snapshot.write_ms", Unit: "ms", Better: lower},
	{Name: "snapshot.load_entries_per_s", Unit: "1/s", Better: higher},
	// server (incl. batchio)
	{Name: "server.rtt_serial_us", Unit: "us", Better: lower},
	{Name: "server.pipelined_rps", Unit: "req/s", Better: higher},
	{Name: "server.self_us", Unit: "us", Better: lower},
	{Name: "server.frames_per_writev", Unit: "count", Better: higher},
	{Name: "server.queue_wait_us_p99", Unit: "us", Better: lower},
	// p2p
	{Name: "p2p.call_rtt_us", Unit: "us", Better: lower},
	{Name: "p2p.call_pipelined_rps", Unit: "req/s", Better: higher},
	{Name: "p2p.replicate_quorum_us", Unit: "us", Better: lower},
	{Name: "p2p.forward_rtt_us", Unit: "us", Better: lower},
	{Name: "p2p.repair_entries_per_s", Unit: "1/s", Better: higher},
	{Name: "p2p.frames_per_write", Unit: "count", Better: higher},
	{Name: "p2p.repair_bytes_per_cycle", Unit: "bytes", Better: lower},
	// cluster client
	{Name: "cluster.call_overhead_us", Unit: "us", Better: lower},
	{Name: "cluster.routed_share", Unit: "ratio", Better: higher},
	{Name: "cluster.failovers", Unit: "count", Better: lower},
	{Name: "cluster.refreshes", Unit: "count", Better: lower},
	{Name: "cluster.lat_pmax_us", Unit: "us", Better: lower},
	// request budget from the nodes' own spans
	{Name: "server.dispatch_us_p50", Unit: "us", Better: lower},
	{Name: "server.queue_wait_us_p50", Unit: "us", Better: lower},
	{Name: "pool.shard_exec_us_p50", Unit: "us", Better: lower},
	{Name: "wal.commit_share_us_p50", Unit: "us", Better: lower},
	{Name: "wal.commit_share_us_p99", Unit: "us", Better: lower},
	{Name: "server.resp_flush_us_p50", Unit: "us", Better: lower},
	{Name: "p2p.peer_call_us_p50", Unit: "us", Better: lower},
	{Name: "p2p.peer_call_us_p99", Unit: "us", Better: lower},
	{Name: "p2p.replicate_exec_us_p50", Unit: "us", Better: lower},
	{Name: "budget.coverage_ratio", Unit: "ratio", Better: higher},
	// node processes and the load generator itself
	{Name: "node.rss_peak_mb", Unit: "MB", Better: lower},
	{Name: "node.disk_bytes", Unit: "bytes", Better: lower},
	{Name: "gen.late_p99_us", Unit: "us", Better: lower},
	{Name: "gen.cpu_share", Unit: "ratio", Better: lower},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: lower},
	// simulator
	{Name: "experiments.fig1_s", Unit: "s", Better: lower},
	{Name: "experiments.table2_s", Unit: "s", Better: lower},
	{Name: "experiments.fig11_s", Unit: "s", Better: lower},
	{Name: "experiments.fig12_s", Unit: "s", Better: lower},
	{Name: "eventsim.ns_per_event", Unit: "ns", Better: lower},
	{Name: "idspace.common_digits_ns", Unit: "ns", Better: lower},
	{Name: "mpil.service_lookup_us", Unit: "us", Better: lower},
	{Name: "mpil.service_insert_us", Unit: "us", Better: lower},
	{Name: "mpil.msgs_per_lookup", Unit: "count", Better: lower},
	{Name: "pastry.lookups_per_s", Unit: "1/s", Better: higher},
	{Name: "topology.random_overlay_ms", Unit: "ms", Better: lower},
}

// workloadDef names a workload and why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"read-direct", "lookups only: wire, server, cluster and the pool/mpil engine do the work while wal and p2p replicate idle, so a WAL or replication change must not move it"},
	{"write-quorum", "70/20/10 insert/overwrite/delete: wal group commit and p2p replicate fan-out with quorum wait dominate; shares server/pool code with read-direct"},
	{"mixed-restart", "Zipf reads behind write batches, periodic anti-entropy in the background, kill/restart while lookups continue: durable recovery, snapshot load and PullRepair run under load"},
	{"paper-sim", "the paper's ground truth: eventsim, idspace, mpil, pastry, perturb, topology with no I/O layer; shares internal/mpil with the serving pool"},
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []perLayerDef `json:"per_layer"`
}

// perLayerDef is a metricDef without the bound key, which BENCHMARK.json
// does not allow on per-layer metrics.
type perLayerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is how long one driver run measures; every phase length in
// workloads.json is a share of it.
const runSeconds = 18

func benchmarkJSON() benchmarkFile {
	b := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
	}
	for _, m := range perLayer {
		b.PerLayer = append(b.PerLayer, perLayerDef{m.Name, m.Unit, m.Better})
	}
	return b
}

// loadBenchmarkJSON reads the committed BENCHMARK.json: -compare takes
// directions and bounds from the file the driver uses, not from this
// binary, so comparing across commits applies the bounds in force.
func loadBenchmarkJSON(path string) (benchmarkFile, error) {
	var b benchmarkFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range perLayer {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}
