// Command discoveryd serves MPIL discovery over TCP with the
// internal/wire binary protocol: insert, lookup, delete, and stats
// requests against a shard-per-core pool of engines sharing one overlay.
//
// Example:
//
//	discoveryd -listen :7700 -topology random -nodes 2000 -degree 20 \
//	           -overlay-seed 42 -shards 4 -maxflows 10 -replicas 5 \
//	           -data-dir /var/lib/discoveryd -fsync batch -snapshot-every 10000
//
// The overlay is generated at startup from the spec flags and never
// mutates while serving; requests are partitioned across shards by
// hashing the key, so results are deterministic per (seed, shard count)
// for any fixed per-shard request order. See the README's "Running the
// daemon" section for the shard and backpressure model.
//
// With -data-dir set, every insert and delete is written ahead to a
// checksummed log (and fsynced per -fsync) before it executes, and
// shard snapshots every -snapshot-every mutations keep the log short.
// Restarting on the same directory recovers every acknowledged mutation
// — including after a SIGKILL or machine crash. See the README's
// "Persistence & recovery" section.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	discovery "discovery"
	"discovery/internal/metrics"
	"discovery/internal/server"
	"discovery/internal/trace"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		listen      = flag.String("listen", ":7700", "TCP listen address")
		topo        = flag.String("topology", "random", "overlay family: random, powerlaw, complete")
		nodes       = flag.Int("nodes", 2000, "overlay size")
		degree      = flag.Int("degree", 20, "degree of random overlays")
		overlaySeed = flag.Int64("overlay-seed", 42, "overlay generation seed")
		shards      = flag.Int("shards", 0, "engine shards (0 = GOMAXPROCS)")
		queue       = flag.Int("queue", 128, "per-shard request queue depth")
		batch       = flag.Int("batch", 64, "max requests one shard worker executes per batch (shared WAL commit)")
		seed        = flag.Int64("seed", 1, "base engine seed (shard i uses seed+i)")
		maxFlows    = flag.Int("maxflows", 10, "max_flows per request")
		replicas    = flag.Int("replicas", 5, "per-flow replicas")
		digitB      = flag.Int("b", 4, "digit width in bits (1, 2, 4, 8)")
		ds          = flag.Bool("ds", false, "duplicate suppression")
		maxHops     = flag.Int("maxhops", 0, "per-flow hop bound (0 = node count)")
		dataDir     = flag.String("data-dir", "", "durable storage directory (empty = in-memory only)")
		fsync       = flag.String("fsync", "batch", "wal fsync policy: always, batch, off")
		snapEvery   = flag.Int("snapshot-every", 10000, "snapshot a shard after N logged mutations (0 = only on shutdown)")
		metricsAddr = flag.String("metrics-listen", "", "HTTP listen address serving /metrics (Prometheus text), /debug/pprof, /debug/vars and /debug/traces (empty = disabled)")
		traceSample = flag.Int("trace-sample", 0, "trace 1 in N client requests (0 = tracing off)")
		traceSlow   = flag.Duration("trace-slow", 0, "log a rate-limited span breakdown for keyed requests slower than this (0 = off; requires -trace-sample)")
	)
	flag.Parse()

	var ov *discovery.StaticOverlay
	var err error
	switch *topo {
	case "random":
		ov, err = discovery.RandomOverlay(*nodes, *degree, *overlaySeed)
	case "powerlaw":
		ov, err = discovery.PowerLawOverlay(*nodes, *overlaySeed)
	case "complete":
		ov, err = discovery.CompleteOverlay(*nodes, *overlaySeed)
	default:
		err = fmt.Errorf("unknown topology %q", *topo)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "discoveryd:", err)
		return 2
	}

	// One process-wide registry: pool, WAL, and server all register into
	// it, so TStats and a /metrics scrape read the same atomics and can
	// never disagree.
	reg := metrics.NewRegistry()

	var tracer *trace.Tracer
	if *traceSample > 0 {
		tracer = trace.New(trace.Config{SampleEvery: *traceSample})
	}

	opts := []discovery.Option{
		discovery.WithMetrics(reg),
		discovery.WithSeed(*seed),
		discovery.WithMaxFlows(*maxFlows),
		discovery.WithPerFlowReplicas(*replicas),
		discovery.WithDigitBits(*digitB),
		discovery.WithDuplicateSuppression(*ds),
	}
	if *maxHops > 0 {
		opts = append(opts, discovery.WithMaxHops(*maxHops))
	}

	var pool *discovery.Pool
	var store io.Closer
	if *dataDir != "" {
		policy, err := discovery.ParseFsyncPolicy(*fsync)
		if err != nil {
			fmt.Fprintln(os.Stderr, "discoveryd:", err)
			return 2
		}
		dp, rec, err := discovery.OpenDurablePool(ov, *shards, discovery.DurableConfig{
			Dir:           *dataDir,
			Fsync:         policy,
			SnapshotEvery: *snapEvery,
			Logf:          log.Printf,
		}, opts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "discoveryd:", err)
			return 2
		}
		pool, store = dp.Pool, dp
		log.Printf("discoveryd: recovered %s: %d snapshot entries, %d wal records replayed in %s (fsync=%s, snapshot-every=%d)",
			*dataDir, rec.SnapshotEntries, rec.Replayed, rec.Elapsed.Round(time.Millisecond), policy, *snapEvery)
		reg.Gauge("recovery.snapshot_entries").Set(int64(rec.SnapshotEntries))
		reg.Gauge("recovery.wal_records_replayed").Set(int64(rec.Replayed))
		reg.Gauge("recovery.millis").Set(rec.Elapsed.Milliseconds())
	} else {
		pool, err = discovery.NewPool(ov, *shards, opts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "discoveryd:", err)
			return 2
		}
	}

	srv, err := server.New(server.Config{
		Pool:          pool,
		QueueDepth:    *queue,
		MaxBatch:      *batch,
		Store:         store,
		Logf:          log.Printf,
		Metrics:       reg,
		Tracer:        tracer,
		SlowThreshold: *traceSlow,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "discoveryd:", err)
		return 2
	}
	addr, err := srv.Start(*listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "discoveryd:", err)
		return 1
	}
	log.Printf("discoveryd: serving %s overlay (%d nodes) on %s with %d shards (queue %d)",
		*topo, ov.N(), addr, pool.NumShards(), *queue)

	if *metricsAddr != "" {
		mux := reg.Mux()
		mux.Handle("/debug/traces", tracer.Handler()) // 404s when tracing is off
		maddr, stopMetrics, err := metrics.ServeMux(*metricsAddr, mux)
		if err != nil {
			fmt.Fprintln(os.Stderr, "discoveryd:", err)
			return 1
		}
		defer stopMetrics()
		log.Printf("discoveryd: metrics on http://%s/metrics (pprof on /debug/pprof)", maddr)
	}

	// Containers send SIGTERM, terminals send SIGINT; both get the same
	// graceful drain (stop accepting, finish queued requests, seal the
	// store).
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	log.Printf("discoveryd: received %v, draining", got)
	drainStart := time.Now()
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "discoveryd:", err)
		return 1
	}
	log.Printf("discoveryd: drained in %s", time.Since(drainStart).Round(time.Millisecond))
	st := pool.Stats()
	log.Printf("discoveryd: served %d requests (%d inserts, %d lookups, %d deletes; %d lookups found)",
		st.Requests, st.Inserts, st.Lookups, st.Deletes, st.LookupsFound)
	return 0
}
