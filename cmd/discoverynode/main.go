// Command discoverynode runs one member of a discovery cluster: separate
// processes, each owning a contiguous region of the 160-bit keyspace,
// exchanging internal/wire peer frames over TCP (internal/p2p).
//
// Example — a three-node cluster on one host:
//
//	discoverynode -listen :7800 -peer-listen 127.0.0.1:7900 \
//	    -bootstrap 127.0.0.1:7900,127.0.0.1:7901,127.0.0.1:7902 \
//	    -data-dir /var/lib/discovery/n0
//	discoverynode -listen :7801 -peer-listen 127.0.0.1:7901 \
//	    -bootstrap 127.0.0.1:7900,127.0.0.1:7901,127.0.0.1:7902 \
//	    -data-dir /var/lib/discovery/n1
//	discoverynode -listen :7802 -peer-listen 127.0.0.1:7902 \
//	    -bootstrap 127.0.0.1:7900,127.0.0.1:7901,127.0.0.1:7902 \
//	    -data-dir /var/lib/discovery/n2
//
// Membership is the sorted, deduplicated bootstrap set (every node must
// be configured with the same spellings); a node's rank in that order is
// its keyspace region. Clients may connect to any node's -listen
// address with the ordinary client protocol: requests for keys the node
// replicates execute locally, everything else is relayed to a replica
// and the reply relayed back.
//
// Each key lives on -replication consecutive regions (default 3,
// clamped to the member count; every member must agree). Mutations ack
// only after a quorum of replicas — ⌈(R+1)/2⌉ — has committed, and
// reads fail over: with any single node down, every region keeps
// serving reads and quorum writes. Only when every replica of a region
// is unreachable do requests for its keys fail with an explicit error
// while all other regions keep serving. With -replication 1 a region is
// down whenever its one owner is. A node restarted on its -data-dir
// recovers every acknowledged mutation for its regions and resumes
// serving them.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	discovery "discovery"
	"discovery/internal/metrics"
	"discovery/internal/p2p"
	"discovery/internal/server"
	"discovery/internal/trace"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		listen      = flag.String("listen", ":7800", "client TCP listen address")
		peerListen  = flag.String("peer-listen", "127.0.0.1:7900", "peer TCP listen address (must be reachable by every member)")
		advertise   = flag.String("advertise", "", "peer address other members know this node by (default: -peer-listen)")
		advClient   = flag.String("advertise-client", "", "client address gossiped to peers for cluster-smart clients (default: the bound -listen address; \"none\" withholds it)")
		bootstrap   = flag.String("bootstrap", "", "comma-separated peer addresses of every cluster member (self may be included)")
		replication = flag.Int("replication", 3, "regions holding each key (clamped to member count; every member must agree)")
		joinTimeout = flag.Duration("join-timeout", 10*time.Second, "how long to retry the initial peer probes")
		dialTimeout = flag.Duration("dial-timeout", p2p.DefaultDialTimeout, "peer dial timeout")
		callTimeout = flag.Duration("call-timeout", p2p.DefaultCallTimeout, "peer request timeout")
		redialWait  = flag.Duration("redial-backoff", p2p.DefaultRedialBackoff, "fail-fast window after a timed-out peer dial (shorten for fast post-partition recovery, lengthen on flaky WANs)")
		peerVia     = flag.String("peer-via", "", "comma-separated peer=dialaddr pairs rewriting where peer connections are dialed (fault-injection proxies, NAT hops); membership identity stays on the real addresses")
		antiEntropy = flag.Bool("anti-entropy", true, "after joining, hand off foreign replicas and pull this region's replicas from peers")
		aeEvery     = flag.Duration("anti-entropy-every", 0, "re-run anti-entropy on this interval so healed partitions re-converge without a restart (0 = once after join only)")
		chaosFsync  = flag.Bool("chaos-fsync-fail", false, "chaos hook: SIGUSR1 permanently arms injected fsync failures on the WAL append path (requires -data-dir)")
		probeEvery  = flag.Duration("probe-interval", 2*time.Second, "background peer health probe interval (0 = lazy health only)")
		shards      = flag.Int("shards", 0, "store shards (0 = GOMAXPROCS)")
		queue       = flag.Int("queue", 128, "per-shard request queue depth")
		batch       = flag.Int("batch", 64, "max requests one shard worker executes per batch (shared WAL commit)")
		dataDir     = flag.String("data-dir", "", "durable storage directory (empty = in-memory only)")
		fsync       = flag.String("fsync", "batch", "wal fsync policy: always, batch, off")
		snapEvery   = flag.Int("snapshot-every", 10000, "snapshot a shard after N logged mutations (0 = only on shutdown)")
		metricsAddr = flag.String("metrics-listen", "", "HTTP listen address serving /metrics (Prometheus text), /debug/pprof, /debug/vars and /debug/traces (empty = disabled)")
		traceSample = flag.Int("trace-sample", 0, "trace 1 in N direct client requests (0 = tracing off); routed requests inherit the sender's decision")
		traceSlow   = flag.Duration("trace-slow", 0, "log a rate-limited span breakdown for keyed requests slower than this (0 = off; requires -trace-sample)")
	)
	flag.Parse()

	self := *advertise
	if self == "" {
		self = *peerListen
	}
	var peers []string
	for _, a := range strings.Split(*bootstrap, ",") {
		if a = strings.TrimSpace(a); a != "" {
			peers = append(peers, a)
		}
	}
	cluster, err := p2p.NewCluster(self, peers, *replication)
	if err != nil {
		fmt.Fprintln(os.Stderr, "discoverynode:", err)
		return 2
	}
	dialVia := map[string]string{}
	if *peerVia != "" {
		for _, pair := range strings.Split(*peerVia, ",") {
			peer, via, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok || peer == "" || via == "" {
				fmt.Fprintf(os.Stderr, "discoverynode: -peer-via: bad pair %q (want peer=dialaddr)\n", pair)
				return 2
			}
			dialVia[peer] = via
		}
	}
	ov, err := p2p.NewRemoteOverlay(cluster)
	if err != nil {
		fmt.Fprintln(os.Stderr, "discoverynode:", err)
		return 2
	}
	log.Printf("discoverynode: region %d of %d, replication %d (quorum %d), members %v (fingerprint %016x)",
		cluster.Self(), cluster.N(), cluster.R(), cluster.Quorum(), cluster.Addrs(), cluster.Hash())

	// One process-wide registry: pool, WAL, server, and p2p layers all
	// register into it, so TStats and a /metrics scrape read the same
	// atomics and can never disagree.
	reg := metrics.NewRegistry()

	// One process-wide tracer, shared by the serving layer (sampling +
	// local spans) and the p2p layer (peer hops, responder spans). The
	// node index stamps every span, so joined cross-process traces show
	// which member did what.
	var tracer *trace.Tracer
	if *traceSample > 0 {
		tracer = trace.New(trace.Config{Node: uint32(cluster.Self()), SampleEvery: *traceSample})
	}

	opts := []discovery.Option{
		discovery.WithMetrics(reg),
		discovery.WithRegion(cluster.Self(), cluster.N()),
		discovery.WithReplication(cluster.R()),
	}

	// Chaos fsync injection: inert until SIGUSR1 arms it, then every
	// append-path fsync fails permanently — the WAL poisons itself and
	// the node keeps serving reads while refusing further mutations.
	var fsyncFailArmed atomic.Bool
	if *chaosFsync {
		if *dataDir == "" {
			log.Printf("discoverynode: -chaos-fsync-fail ignored without -data-dir")
		} else {
			armCh := make(chan os.Signal, 1)
			signal.Notify(armCh, syscall.SIGUSR1)
			go func() {
				<-armCh
				fsyncFailArmed.Store(true)
				log.Printf("discoverynode: chaos: fsync failures armed by SIGUSR1")
			}()
		}
	}

	var pool *discovery.Pool
	var store io.Closer
	if *dataDir != "" {
		policy, err := discovery.ParseFsyncPolicy(*fsync)
		if err != nil {
			fmt.Fprintln(os.Stderr, "discoverynode:", err)
			return 2
		}
		dcfg := discovery.DurableConfig{
			Dir:           *dataDir,
			Fsync:         policy,
			SnapshotEvery: *snapEvery,
			Logf:          log.Printf,
		}
		if *chaosFsync {
			dcfg.WALSyncErr = func() error {
				if fsyncFailArmed.Load() {
					return errors.New("chaos: injected fsync failure")
				}
				return nil
			}
		}
		dp, rec, err := discovery.OpenDurablePool(ov, *shards, dcfg, opts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "discoverynode:", err)
			return 2
		}
		pool, store = dp.Pool, dp
		log.Printf("discoverynode: recovered %s: %d snapshot entries, %d wal records replayed in %s",
			*dataDir, rec.SnapshotEntries, rec.Replayed, rec.Elapsed.Round(time.Millisecond))
		reg.Gauge("recovery.snapshot_entries").Set(int64(rec.SnapshotEntries))
		reg.Gauge("recovery.wal_records_replayed").Set(int64(rec.Replayed))
		reg.Gauge("recovery.millis").Set(rec.Elapsed.Milliseconds())
	} else {
		pool, err = discovery.NewPool(ov, *shards, opts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "discoverynode:", err)
			return 2
		}
	}

	node, err := p2p.NewNode(p2p.Config{
		Cluster:       cluster,
		Overlay:       ov,
		Pool:          pool,
		DialTimeout:   *dialTimeout,
		CallTimeout:   *callTimeout,
		RedialBackoff: *redialWait,
		DialVia:       dialVia,
		ProbeInterval: *probeEvery,
		Logf:          log.Printf,
		Metrics:       reg,
		Tracer:        tracer,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "discoverynode:", err)
		return 2
	}
	peerAddr, err := node.Start(*peerListen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "discoverynode:", err)
		return 1
	}
	log.Printf("discoverynode: peer listener on %s", peerAddr)

	srvCfg := server.Config{
		Pool:          pool,
		QueueDepth:    *queue,
		MaxBatch:      *batch,
		Store:         store,
		Owns:          node.Owns,
		Forward:       node.Forward,
		Replication:   uint32(cluster.R()),
		ClusterHash:   cluster.Hash(),
		Members:       node.Members,
		Logf:          log.Printf,
		Metrics:       reg,
		Tracer:        tracer,
		SlowThreshold: *traceSlow,
	}
	if cluster.Quorum() > 1 {
		// Locally-coordinated mutations fan out to co-replicas and ack
		// only after a quorum commits. With a quorum of one the hook is
		// left nil: there is nothing to wait for.
		srvCfg.Replicate = node.ReplicateAsync
	}
	srv, err := server.New(srvCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "discoverynode:", err)
		return 2
	}
	addr, err := srv.Start(*listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "discoverynode:", err)
		return 1
	}
	log.Printf("discoverynode: serving clients on %s (region %d of %d, %d shards, queue %d)",
		addr, cluster.Self(), cluster.N(), pool.NumShards(), *queue)

	if *metricsAddr != "" {
		mux := reg.Mux()
		mux.Handle("/debug/traces", tracer.Handler()) // 404s when tracing is off
		maddr, stopMetrics, err := metrics.ServeMux(*metricsAddr, mux)
		if err != nil {
			fmt.Fprintln(os.Stderr, "discoverynode:", err)
			return 1
		}
		defer stopMetrics()
		log.Printf("discoverynode: metrics on http://%s/metrics (pprof on /debug/pprof)", maddr)
	}

	// Advertise the client address to peers: probe gossip spreads it, and
	// every member then serves the full table to cluster-smart clients
	// (TMembers). A wildcard -listen like ":7800" binds every interface
	// but advertises an address peers and clients cannot reliably dial, so
	// such deployments should set -advertise-client explicitly.
	switch *advClient {
	case "none":
	case "":
		node.SetClientAddr(addr.String())
	default:
		node.SetClientAddr(*advClient)
	}

	// Join and anti-entropy run in the background: a restarted node must
	// serve its recovered region immediately, not wait for dead peers.
	// The goroutine is awaited during shutdown (after StopServing cancels
	// it) because anti-entropy mutates the pool — the store must quiesce
	// before it is sealed.
	maintDone := make(chan struct{})
	maintStop := make(chan struct{})
	go func() {
		defer close(maintDone)
		if err := node.Join(*joinTimeout); err != nil {
			log.Printf("discoverynode: %v (serving own region regardless)", err)
		} else {
			log.Printf("discoverynode: joined all %d peers", cluster.N()-1)
		}
		if !*antiEntropy {
			return
		}
		moved, pulled, err := node.AntiEntropy()
		if moved > 0 || pulled > 0 || err != nil {
			log.Printf("discoverynode: anti-entropy: %d replicas handed off, %d pulled, err=%v", moved, pulled, err)
		}
		if *aeEvery <= 0 {
			return
		}
		// Periodic anti-entropy: a partition heals without a restart
		// because every node keeps pulling its replicated regions back
		// into sync. Errors are expected while a fault is live (the
		// whole point of running during one), so only eventful passes
		// log.
		tick := time.NewTicker(*aeEvery)
		defer tick.Stop()
		for {
			select {
			case <-maintStop:
				return
			case <-tick.C:
			}
			moved, pulled, err := node.AntiEntropy()
			if moved > 0 || pulled > 0 || err != nil {
				log.Printf("discoverynode: anti-entropy: %d replicas handed off, %d pulled, err=%v", moved, pulled, err)
			}
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	log.Printf("discoverynode: received %v, draining", got)
	drainStart := time.Now()
	// Inbound peer mutations and background maintenance stop first (the
	// store must quiesce before it is sealed), then the client side
	// drains — forwarding to other nodes keeps working through the
	// drain — then outbound peer connections close.
	close(maintStop)
	node.StopServing()
	<-maintDone
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "discoverynode:", err)
		return 1
	}
	node.Close()
	log.Printf("discoverynode: drained in %s", time.Since(drainStart).Round(time.Millisecond))
	st := pool.Stats()
	log.Printf("discoverynode: served %d requests (%d inserts, %d lookups, %d deletes; %d lookups found)",
		st.Requests, st.Inserts, st.Lookups, st.Deletes, st.LookupsFound)
	return 0
}
