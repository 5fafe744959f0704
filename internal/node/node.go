// Package node assembles one member of a discovery cluster as a library
// value: the shard pool (durable when Config.DataDir is set), the peer
// runtime (internal/p2p), the client server (internal/server), the
// optional /metrics endpoint, and the background join and anti-entropy
// loop. Start brings a member up; Close owns the whole drain order.
// cmd/discoverynode is flag parsing around one Start, and the chaos
// harness (internal/chaos) runs several members in one process.
package node

import (
	"io"
	"net"
	"sync"
	"time"

	discovery "discovery"
	"discovery/internal/metrics"
	"discovery/internal/p2p"
	"discovery/internal/server"
	"discovery/internal/trace"
)

// defaultProbeInterval is the peer health probe period a zero
// Config.ProbeInterval selects.
const defaultProbeInterval = 2 * time.Second

// Config parameterizes a member. All but the last four fields are what
// cmd/discoverynode's flags fill; zero values select the same defaults
// the lower layers apply.
type Config struct {
	Listen          string        // client TCP listen address
	PeerListen      string        // peer TCP listen address (must be reachable by every member)
	Advertise       string        // peer address other members know this node by ("" = PeerListen)
	AdvertiseClient string        // client address gossiped to peers ("" = the bound Listen address; "none" withholds it)
	Bootstrap       []string      // peer addresses of every member (self may be included)
	Replication     int           // regions holding each key (clamped to the member count; every member must agree)
	JoinTimeout     time.Duration // how long the initial peer probes retry
	DialTimeout     time.Duration // peer dial timeout
	CallTimeout     time.Duration // peer request timeout
	AntiEntropy     bool          // after joining, pull every replicated region from peers
	// AntiEntropyEvery re-runs anti-entropy on this interval so healed
	// partitions re-converge without a restart (0 = once after join).
	AntiEntropyEvery time.Duration
	Shards           int                   // store shards (0 = GOMAXPROCS)
	QueueDepth       int                   // per-shard request queue depth
	MaxBatch         int                   // max requests one shard worker executes per batch
	DataDir          string                // durable storage directory ("" = in-memory only)
	Fsync            discovery.FsyncPolicy // WAL fsync policy
	SnapshotEvery    int                   // snapshot a shard after N logged mutations (0 = only on Close)
	MetricsListen    string                // HTTP address for /metrics, /debug/pprof, /debug/vars, /debug/traces ("" = off)
	TraceSample      int                   // trace 1 in N direct client requests (0 = off)
	SlowThreshold    time.Duration         // log a span breakdown for keyed requests slower than this
	Logf             func(format string, args ...any)

	// Fault-injection hooks, passed through to p2p.Config and
	// discovery.DurableConfig (see there).
	DialVia       map[string]string
	RedialBackoff time.Duration
	ProbeInterval time.Duration // 0 = 2s; negative = lazy health only
	WALSyncErr    func() error
}

// Node is one running member.
type Node struct {
	cfg         Config
	cluster     *p2p.Cluster
	pool        *discovery.Pool
	store       io.Closer // the durable pool; nil in memory
	peer        *p2p.Node
	srv         *server.Server
	addr        net.Addr
	stopMetrics func()

	quit      chan struct{} // stops the periodic anti-entropy loop
	maintDone chan struct{} // closed when the maintenance goroutine exits; nil until it starts
	closeOnce sync.Once
	closeErr  error
}

// Start brings a member up: it is serving clients and peers when Start
// returns, while join and anti-entropy run in the background, so a
// restarted node serves its recovered region without waiting for dead
// peers. If a step fails, whatever the earlier steps opened is closed
// again before Start returns the error.
func Start(cfg Config) (*Node, error) {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = defaultProbeInterval
	}
	n := &Node{cfg: cfg, quit: make(chan struct{})}
	if err := n.start(); err != nil {
		n.drain() //nolint:errcheck // the start error is the one to report
		return nil, err
	}
	return n, nil
}

func (n *Node) start() error {
	cfg := n.cfg
	self := cfg.Advertise
	if self == "" {
		self = cfg.PeerListen
	}
	cl, err := p2p.NewCluster(self, cfg.Bootstrap, cfg.Replication)
	if err != nil {
		return err
	}
	n.cluster = cl
	ov, err := p2p.NewRemoteOverlay(cl)
	if err != nil {
		return err
	}
	n.cfg.Logf("discoverynode: region %d of %d, replication %d (quorum %d), members %v (fingerprint %016x)",
		cl.Self(), cl.N(), cl.R(), cl.Quorum(), cl.Addrs(), cl.Hash())

	// One registry and one tracer per member: pool, WAL, server and p2p
	// all record into them, so a scrape and TStats read the same atomics,
	// and the node index stamps every span of a joined trace.
	reg := metrics.NewRegistry()
	var tracer *trace.Tracer
	if cfg.TraceSample > 0 {
		tracer = trace.New(trace.Config{Node: uint32(cl.Self()), SampleEvery: cfg.TraceSample})
	}
	opts := []discovery.Option{
		discovery.WithMetrics(reg),
		discovery.WithRegion(cl.Self(), cl.N()),
		discovery.WithReplication(cl.R()),
	}
	if cfg.DataDir == "" {
		if n.pool, err = discovery.NewPool(ov, cfg.Shards, opts...); err != nil {
			return err
		}
	} else {
		dp, rec, err := discovery.OpenDurablePool(ov, cfg.Shards, discovery.DurableConfig{
			Dir:           cfg.DataDir,
			Fsync:         cfg.Fsync,
			SnapshotEvery: cfg.SnapshotEvery,
			Logf:          cfg.Logf,
			WALSyncErr:    cfg.WALSyncErr,
		}, opts...)
		if err != nil {
			return err
		}
		n.pool, n.store = dp.Pool, dp
		n.cfg.Logf("discoverynode: recovered %s: %d snapshot entries, %d wal records replayed in %s",
			cfg.DataDir, rec.SnapshotEntries, rec.Replayed, rec.Elapsed.Round(time.Millisecond))
		reg.Gauge("recovery.snapshot_entries").Set(int64(rec.SnapshotEntries))
		reg.Gauge("recovery.wal_records_replayed").Set(int64(rec.Replayed))
		reg.Gauge("recovery.millis").Set(rec.Elapsed.Milliseconds())
	}

	if n.peer, err = p2p.NewNode(p2p.Config{
		Cluster:       cl,
		Overlay:       ov,
		Pool:          n.pool,
		DialTimeout:   cfg.DialTimeout,
		CallTimeout:   cfg.CallTimeout,
		RedialBackoff: cfg.RedialBackoff,
		DialVia:       cfg.DialVia,
		ProbeInterval: cfg.ProbeInterval,
		Logf:          cfg.Logf,
		Metrics:       reg,
		Tracer:        tracer,
	}); err != nil {
		return err
	}
	peerAddr, err := n.peer.Start(cfg.PeerListen)
	if err != nil {
		return err
	}
	n.cfg.Logf("discoverynode: peer listener on %s", peerAddr)

	srvCfg := server.Config{
		Pool:          n.pool,
		QueueDepth:    cfg.QueueDepth,
		MaxBatch:      cfg.MaxBatch,
		Owns:          n.peer.Owns,
		Forward:       n.peer.Forward,
		Replication:   uint32(cl.R()),
		ClusterHash:   cl.Hash(),
		Members:       n.peer.Members,
		Logf:          cfg.Logf,
		Metrics:       reg,
		Tracer:        tracer,
		SlowThreshold: cfg.SlowThreshold,
	}
	if cl.Quorum() > 1 {
		// Locally-coordinated mutations fan out to co-replicas and ack
		// only after a quorum commits. With a quorum of one the hook is
		// left nil: there is nothing to wait for.
		srvCfg.Replicate = n.peer.ReplicateAsync
	}
	if n.srv, err = server.New(srvCfg); err != nil {
		return err
	}
	if n.addr, err = n.srv.Start(cfg.Listen); err != nil {
		return err
	}
	n.cfg.Logf("discoverynode: serving clients on %s (region %d of %d, %d shards, queue %d)",
		n.addr, cl.Self(), cl.N(), n.pool.NumShards(), cfg.QueueDepth)

	if cfg.MetricsListen != "" {
		mux := reg.Mux()
		mux.Handle("/debug/traces", tracer.Handler()) // 404s when tracing is off
		maddr, stop, err := metrics.ServeMux(cfg.MetricsListen, mux)
		if err != nil {
			return err
		}
		n.stopMetrics = stop
		n.cfg.Logf("discoverynode: metrics on http://%s/metrics (pprof on /debug/pprof)", maddr)
	}

	// Advertise the client address to peers: probe gossip spreads it, and
	// every member then serves the full table to cluster-smart clients
	// (TMembers). A wildcard Listen like ":7800" advertises an address
	// peers and clients cannot reliably dial, so such deployments should
	// set AdvertiseClient explicitly.
	switch cfg.AdvertiseClient {
	case "none":
	case "":
		n.peer.SetClientAddr(n.addr.String())
	default:
		n.peer.SetClientAddr(cfg.AdvertiseClient)
	}

	n.maintDone = make(chan struct{})
	go n.maintain()
	return nil
}

// maintain joins the cluster and runs anti-entropy: once after the join,
// then every AntiEntropyEvery until Close. Periodic passes let a healed
// partition re-converge without a restart; errors are expected while a
// fault is live, so only eventful passes log.
func (n *Node) maintain() {
	defer close(n.maintDone)
	if err := n.peer.Join(n.cfg.JoinTimeout); err != nil {
		n.cfg.Logf("discoverynode: %v (serving own region regardless)", err)
	} else {
		n.cfg.Logf("discoverynode: joined all %d peers", n.cluster.N()-1)
	}
	if !n.cfg.AntiEntropy {
		return
	}
	pass := func() {
		pulled, err := n.peer.AntiEntropy()
		if pulled > 0 || err != nil {
			n.cfg.Logf("discoverynode: anti-entropy: %d replicas pulled, err=%v", pulled, err)
		}
	}
	pass()
	if n.cfg.AntiEntropyEvery <= 0 {
		return
	}
	tick := time.NewTicker(n.cfg.AntiEntropyEvery)
	defer tick.Stop()
	for {
		select {
		case <-n.quit:
			return
		case <-tick.C:
		}
		pass()
	}
}

// Addr returns the bound client address.
func (n *Node) Addr() net.Addr { return n.addr }

// Close drains the member and reports the store's close error. Safe to
// call more than once.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		start := time.Now()
		n.closeErr = n.drain()
		n.cfg.Logf("discoverynode: drained in %s", time.Since(start).Round(time.Millisecond))
		st := n.pool.Stats()
		n.cfg.Logf("discoverynode: served %d requests (%d inserts, %d lookups, %d deletes; %d lookups found)",
			st.Requests, st.Inserts, st.Lookups, st.Deletes, st.LookupsFound)
	})
	return n.closeErr
}

// drain closes whatever start opened, in the one order that is safe:
// inbound peer serving and background maintenance stop first, because
// both mutate the pool and the store must quiesce before it is sealed;
// then the client side drains (forwarding to other members keeps working
// meanwhile); then the store is sealed; then outbound peer connections
// close.
func (n *Node) drain() error {
	close(n.quit)
	if n.peer != nil {
		n.peer.StopServing()
	}
	if n.maintDone != nil {
		<-n.maintDone
	}
	if n.srv != nil {
		n.srv.Close()
	}
	var err error
	if n.store != nil {
		err = n.store.Close()
	}
	if n.peer != nil {
		n.peer.Close()
	}
	if n.stopMetrics != nil {
		n.stopMetrics()
	}
	return err
}
