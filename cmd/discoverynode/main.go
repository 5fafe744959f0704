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
//
// The member itself is internal/node; this command parses flags, starts
// one, and drains it on SIGINT or SIGTERM.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	discovery "discovery"
	"discovery/internal/node"
	"discovery/internal/p2p"
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
		antiEntropy = flag.Bool("anti-entropy", true, "after joining, pull every replicated region from peers")
		aeEvery     = flag.Duration("anti-entropy-every", 0, "re-run anti-entropy on this interval so healed partitions re-converge without a restart (0 = once after join only)")
		shards      = flag.Int("shards", 0, "store shards (0 = GOMAXPROCS)")
		queue       = flag.Int("queue", 128, "per-shard request queue depth")
		batch       = flag.Int("batch", 64, "max requests one shard worker executes per batch (shared WAL commit)")
		dataDir     = flag.String("data-dir", "", "durable storage directory (empty = in-memory only)")
		fsync       = flag.String("fsync", "batch", "wal fsync policy: batch, off")
		snapEvery   = flag.Int("snapshot-every", 10000, "snapshot a shard after N logged mutations (0 = only on shutdown)")
		metricsAddr = flag.String("metrics-listen", "", "HTTP listen address serving /metrics (Prometheus text), /debug/pprof, /debug/vars and /debug/traces (empty = disabled)")
		traceSample = flag.Int("trace-sample", 0, "trace 1 in N direct client requests (0 = tracing off); routed requests inherit the sender's decision")
		traceSlow   = flag.Duration("trace-slow", 0, "log a rate-limited span breakdown for keyed requests slower than this (0 = off; requires -trace-sample)")
	)
	flag.Parse()

	policy, err := discovery.ParseFsyncPolicy(*fsync)
	if err != nil {
		fmt.Fprintln(os.Stderr, "discoverynode:", err)
		return 2
	}
	var peers []string
	for _, a := range strings.Split(*bootstrap, ",") {
		if a = strings.TrimSpace(a); a != "" {
			peers = append(peers, a)
		}
	}
	n, err := node.Start(node.Config{
		Listen:           *listen,
		PeerListen:       *peerListen,
		Advertise:        *advertise,
		AdvertiseClient:  *advClient,
		Bootstrap:        peers,
		Replication:      *replication,
		JoinTimeout:      *joinTimeout,
		DialTimeout:      *dialTimeout,
		CallTimeout:      *callTimeout,
		AntiEntropy:      *antiEntropy,
		AntiEntropyEvery: *aeEvery,
		Shards:           *shards,
		QueueDepth:       *queue,
		MaxBatch:         *batch,
		DataDir:          *dataDir,
		Fsync:            policy,
		SnapshotEvery:    *snapEvery,
		MetricsListen:    *metricsAddr,
		TraceSample:      *traceSample,
		SlowThreshold:    *traceSlow,
		Logf:             log.Printf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "discoverynode:", err)
		return 1
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	log.Printf("discoverynode: received %v, draining", <-sig)
	if err := n.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "discoverynode:", err)
		return 1
	}
	return 0
}
