package p2p

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	discovery "discovery"
	"discovery/internal/batchio"
	"discovery/internal/idspace"
	"discovery/internal/metrics"
	"discovery/internal/ratelog"
	"discovery/internal/rpc"
	"discovery/internal/trace"
	"discovery/internal/wire"
)

// Config parameterizes a Node.
type Config struct {
	// Cluster is the static membership. Required.
	Cluster *Cluster
	// Overlay is the cluster overlay the pool routes over. Required.
	Overlay *RemoteOverlay
	// Pool executes owned requests. Required; it should be built over
	// Overlay with WithRegion(Cluster.Self(), Cluster.N()).
	Pool *discovery.Pool
	// DialTimeout bounds one peer dial (default 500ms). Loopback and
	// datacenter peers answer or refuse fast; a short timeout keeps a
	// dead region from stalling client connections.
	DialTimeout time.Duration
	// CallTimeout bounds one peer round trip (default 5s).
	CallTimeout time.Duration
	// RedialBackoff is the fail-fast window armed after a slow (timed
	// out) peer dial failure (default DefaultRedialBackoff). Chaos
	// harnesses shorten it so partitioned peers are retried quickly
	// after heal; operators on flaky WANs may lengthen it.
	RedialBackoff time.Duration
	// DialVia rewrites peer dial targets (cluster address -> address to
	// actually connect to) without touching protocol identity. Used to
	// interpose fault-injection proxies or NAT hops on peer links.
	DialVia map[string]string
	// MaxForwards caps concurrently in-flight forwarded client requests
	// (default 256). At the cap the client reader blocks, which turns
	// into TCP backpressure exactly like a full shard queue.
	MaxForwards int
	// ProbeInterval, when positive, probes every peer on that interval
	// so transport health (RemoteOverlay.Alive) flips eagerly instead of
	// on the next call that happens to hit a dead peer. Zero disables
	// the timer; health is then updated lazily as before.
	ProbeInterval time.Duration
	// Logf, when set, receives connection-level error lines.
	Logf func(format string, args ...any)
	// Metrics, when set, receives the node's p2p.* instrumentation
	// (outbound call latency and coalescing, inbound peer-writer
	// coalescing). Nil keeps the counters in a private registry, so
	// Transport.WriteStats works either way.
	Metrics *metrics.Registry
	// Tracer, when set, records per-request spans (internal/trace): the
	// outbound peer hop of every traced Transport.Call, and the
	// responder-side execution of traced TRoute/TRepair/TTransfer
	// requests — trace context rides the wire trailer, so spans from both
	// processes join under one trace ID. Anti-entropy requests
	// (PullRepair, Handoff) are sampled by the tracer's own rate.
	Tracer *trace.Tracer
}

// Node is the per-process cluster runtime: the inbound peer listener, the
// outbound transport, and the glue that multiplexes peer and client
// traffic onto one pool. Wire Owns and Forward into
// server.Config; peer traffic flows through Start's listener.
type Node struct {
	cfg    Config
	tr     *Transport
	tracer *trace.Tracer

	// repairLogf rate-limits the per-page repair diagnostics (oversize
	// skips, budget pagination): a deep repair emits one line per page,
	// which a big store turns into a log flood.
	repairLogf func(format string, args ...any)

	fwdSem chan struct{}
	// quit is closed by StopServing so background maintenance (Join
	// retries, anti-entropy batches) stops issuing work promptly: the
	// store must quiesce before shutdown seals it.
	quit chan struct{}

	ln rpc.Listener

	// addrMu guards clientAddrs: slot i is member i's client-serving
	// address, learned from probe exchanges (both directions piggyback
	// it) — empty until that member advertises one. Members() republishes
	// the table to cluster-smart clients via TMembersOK.
	addrMu      sync.Mutex
	clientAddrs []string

	wg sync.WaitGroup

	// pwstats meters the inbound peer-connection writers (response
	// coalescing), shared across connections; nil when Config.Metrics is
	// nil, which leaves connWriter unmetered.
	pwstats *batchio.Stats

	bufs sync.Pool // *[]byte pooled peer-reply frame buffers
}

// errNodeClosed aborts maintenance passes interrupted by shutdown.
var errNodeClosed = errors.New("p2p: node closed")

// NewNode builds the runtime. Call Start to serve peer traffic.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Cluster == nil || cfg.Overlay == nil || cfg.Pool == nil {
		return nil, errors.New("p2p: Config.Cluster, Overlay and Pool are required")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.MaxForwards <= 0 {
		cfg.MaxForwards = 256
	}
	n := &Node{
		cfg: cfg,
		tr: NewTransport(cfg.Cluster, cfg.Overlay, TransportConfig{
			DialTimeout:   cfg.DialTimeout,
			CallTimeout:   cfg.CallTimeout,
			RedialBackoff: cfg.RedialBackoff,
			DialVia:       cfg.DialVia,
			Logf:          cfg.Logf,
			Metrics:       cfg.Metrics,
		}),
		tracer:      cfg.Tracer,
		repairLogf:  ratelog.New(4, 2).Wrap(cfg.Logf),
		fwdSem:      make(chan struct{}, cfg.MaxForwards),
		quit:        make(chan struct{}),
		clientAddrs: make([]string, cfg.Cluster.N()),
	}
	n.tr.tracer = cfg.Tracer
	if reg := cfg.Metrics; reg != nil {
		n.pwstats = &batchio.Stats{
			Writes:         reg.Counter("p2p.peer_writes"),
			Frames:         reg.Counter("p2p.peer_frames"),
			Bytes:          reg.Counter("p2p.peer_write_bytes"),
			FramesPerWrite: reg.Histogram("p2p.peer_frames_per_write", 1),
		}
	}
	n.bufs.New = func() any {
		b := make([]byte, 0, 512)
		return &b
	}
	n.tr.OnPeerClientAddr(n.learnClientAddr)
	n.tr.StartProber(cfg.ProbeInterval)
	return n, nil
}

// Transport returns the outbound peer transport.
func (n *Node) Transport() *Transport { return n.tr }

// SetClientAddr records this node's client-serving address and starts
// advertising it to peers on every probe (both directions piggyback it).
// Call it once the client listener is bound.
func (n *Node) SetClientAddr(addr string) {
	n.addrMu.Lock()
	n.clientAddrs[n.cfg.Cluster.Self()] = addr
	n.addrMu.Unlock()
	n.tr.SetClientAddr(addr)
}

// learnClientAddr records member i's advertised client-serving address.
func (n *Node) learnClientAddr(i int, addr string) {
	if i < 0 || i >= n.cfg.Cluster.N() || i == n.cfg.Cluster.Self() || addr == "" {
		return
	}
	n.addrMu.Lock()
	n.clientAddrs[i] = addr
	n.addrMu.Unlock()
}

// Members returns the client-serving address table, indexed by cluster
// position: slot i is member i's advertised client address, or "" while
// unknown. It has the shape server.Config.Members expects; TMembersOK
// carries it to cluster-smart clients together with the membership
// fingerprint, so clients compute owners over the same ordered list the
// cluster does.
func (n *Node) Members() []string {
	n.addrMu.Lock()
	defer n.addrMu.Unlock()
	return append([]string(nil), n.clientAddrs...)
}

// Owns reports whether this node's region replicates key. It has the
// signature server.Config.Owns expects.
func (n *Node) Owns(key idspace.ID) bool { return n.cfg.Cluster.Owns(key) }

// Forward relays one client request to a replica of key and delivers the
// replica's reply (or an error) to respond, exactly once. Replicas are
// tried in rank order (owner first): a connection failure or call
// timeout fails over to the key's next replica, so a dead owner costs a
// retry, not an outage. Only when every replica is unreachable does the
// client hear an error. It has the signature server.Config.Forward
// expects. trc, when nonzero, is the request's sampled trace ID and
// rides the TRoute wire trailer so the executing node's spans join the
// relay's. The semaphore acquisition blocks the calling connection
// reader at MaxForwards in-flight forwards — deliberate backpressure.
//
// Failover makes forwarded writes at-least-once in one more way: a
// timed-out call to one replica may have committed before the retry
// executes on the next, which the store tolerates: re-inserting a key
// overwrites its one entry.
func (n *Node) Forward(typ wire.Type, key idspace.ID, origin uint32, value []byte, trc uint64, respond func(*wire.Msg)) {
	replicas := n.cfg.Cluster.ReplicasOf(key)
	n.fwdSem <- struct{}{}
	go func() {
		defer func() { <-n.fwdSem }()
		req := &wire.Msg{Type: wire.TRoute, RouteKind: typ, Cluster: n.cfg.Cluster.Hash(), Key: key, Origin: origin, Value: value}
		if trc != 0 {
			req.Traced = true
			req.Trace = trc
		}
		var lastErr error
		for _, r := range replicas {
			if r == n.cfg.Cluster.Self() {
				continue // Forward is only called for keys this node does not replicate
			}
			resp, err := n.tr.Call(r, req)
			if err != nil {
				lastErr = fmt.Errorf("%s: %w", n.cfg.Cluster.Addr(r), err)
				continue // fail over to the key's next replica
			}
			switch resp.Type {
			case wire.TInsertOK, wire.TLookupOK, wire.TDeleteOK, wire.TError:
				respond(resp)
			default:
				respond(&wire.Msg{Type: wire.TError, Value: []byte("unexpected peer response " + resp.Type.String())})
			}
			return
		}
		respond(&wire.Msg{Type: wire.TError, Value: []byte(fmt.Sprintf(
			"region %d unreachable: all %d replicas down: %v", replicas[0], len(replicas), lastErr))})
	}()
}

// Replicate fans one committed mutation to the key's co-replicas as
// TReplicate frames and waits until enough of them ack that the
// mutation is quorum-committed: ReplicateAsync plus the wait.
func (n *Node) Replicate(typ wire.Type, key idspace.ID, origin uint32, value []byte, trc uint64) error {
	ch := make(chan error, 1)
	n.ReplicateAsync(typ, key, origin, value, trc, func(err error) { ch <- err })
	return <-ch
}

// ReplicateAsync fans one committed mutation to the key's co-replicas as
// TReplicate frames and reports, through done, when enough of them have
// acked that the mutation is quorum-committed: the caller has (or is
// about to) commit locally, so Quorum()-1 remote acks complete the
// quorum. With R=1 (or a quorum of 1) done(nil) runs at once. It has the
// signature server.Config.Replicate expects. trc, when nonzero, joins
// the replicas' apply spans to the coordinator's trace.
//
// done is invoked exactly once — as soon as the quorum is in, or as soon
// as the calls still outstanding can no longer supply it — and must not
// block: it runs on a peer connection's reader, or on the calling
// goroutine before ReplicateAsync returns (see Transport.Go). Slower
// replicas finish in the background (their acks are counted and dropped)
// and any replica that missed the write converges through anti-entropy.
func (n *Node) ReplicateAsync(typ wire.Type, key idspace.ID, origin uint32, value []byte, trc uint64, done func(error)) {
	c := n.cfg.Cluster
	need := c.Quorum() - 1 // the caller's local commit is the first vote
	if need <= 0 {
		done(nil)
		return
	}
	replicas := c.ReplicasOf(key)
	q := &quorum{need: need, peers: len(replicas), replicas: len(replicas), key: key, done: done}
	for _, r := range replicas {
		if r == c.Self() {
			q.peers--
		}
	}
	if q.peers < need {
		done(fmt.Errorf("p2p: quorum impossible for %v: %d co-replicas, need %d acks", key, q.peers, need))
		return
	}
	for _, p := range replicas {
		if p == c.Self() {
			continue
		}
		req := &wire.Msg{Type: wire.TReplicate, RouteKind: typ, Cluster: c.Hash(), Key: key, Origin: origin, Value: value}
		if trc != 0 {
			req.Traced = true
			req.Trace = trc
		}
		addr := c.Addr(p)
		n.tr.Go(p, req, func(resp *wire.Msg, err error) {
			switch {
			case err != nil:
				err = fmt.Errorf("%s: %w", addr, err)
			case resp.Type == wire.TReplicateOK:
			case resp.Type == wire.TError:
				err = fmt.Errorf("%s: %s", addr, resp.ErrorText())
			default:
				err = fmt.Errorf("%s: unexpected replicate response %v", addr, resp.Type)
			}
			q.result(err)
		})
	}
}

// quorum counts one mutation's replicate acks as its peer calls complete.
type quorum struct {
	need     int // remote acks that complete the quorum
	peers    int // co-replicas called
	replicas int
	key      idspace.ID
	done     func(error)

	mu       sync.Mutex
	acked    int
	failures []error
	fired    bool
}

// result counts one peer call's outcome and fires done when it settles
// the quorum either way.
func (q *quorum) result(err error) {
	q.mu.Lock()
	if err == nil {
		q.acked++
	} else {
		q.failures = append(q.failures, err)
	}
	won := q.acked >= q.need
	lost := q.peers-len(q.failures) < q.need // even if every outstanding call acks
	fire := !q.fired && (won || lost)
	if fire {
		q.fired = true
		err = nil
		if !won {
			err = fmt.Errorf("p2p: quorum not reached for %v: %d of %d replicas committed (need %d): %v",
				q.key, q.acked+1, q.replicas, q.need+1, q.failures)
		}
	}
	q.mu.Unlock()
	if fire {
		q.done(err)
	}
}

// Start listens for peer connections on addr and serves them in the
// background, returning the bound address.
func (n *Node) Start(addr string) (net.Addr, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if !n.ln.Bind(lis) {
		return nil, errors.New("p2p: node closed")
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.ln.Serve(func(nc net.Conn) { //nolint:errcheck // an accept error ends serving, as it always has
			n.wg.Add(1)
			go n.handleConn(nc)
		})
	}()
	return lis.Addr(), nil
}

// StopServing closes the peer listener and inbound connections and waits
// for their handlers, without touching the outbound transport. Shutdown
// wants this split: inbound peer mutations must stop before the store is
// sealed, but outbound forwarding must keep working while the client
// side drains.
func (n *Node) StopServing() {
	if n.ln.Close() {
		close(n.quit)
	}
	n.wg.Wait()
}

// Close stops inbound serving and severs outbound peer connections.
func (n *Node) Close() {
	n.StopServing()
	n.tr.Close()
}

// inboundWorkers caps concurrently-executing requests per inbound peer
// connection. The sending side multiplexes up to MaxForwards calls onto
// one connection, so inbound execution must be concurrent too — a
// serial handler would let queued calls at the tail blow their
// CallTimeout against a perfectly healthy owner.
const inboundWorkers = 32

// handleConn serves one inbound peer connection: frames are read and
// decoded in order, then executed concurrently (bounded by
// inboundWorkers); responses flow through a per-connection writer that
// coalesces queued frames into vectored writes (internal/batchio) — a
// peer multiplexing many calls costs about one writev(2) per batch.
// Responses may complete out of request order, which reqID correlation
// on the sending side tolerates by design.
func (n *Node) handleConn(nc net.Conn) {
	defer n.wg.Done()
	var reqWg sync.WaitGroup
	out := make(chan *[]byte, inboundWorkers)
	writerDone := make(chan struct{})
	go n.connWriter(nc, out, writerDone)
	defer func() {
		// Close the socket first: in-flight handlers blocked on the out
		// queue of a wedged writer fail fast instead of holding the
		// drain for the write deadline. Handlers are the only producers,
		// so out closes only after the last of them finishes.
		nc.Close()
		reqWg.Wait()
		close(out)
		<-writerDone
		n.ln.Forget(nc)
	}()
	sem := make(chan struct{}, inboundWorkers)
	// The reader parks when a lane is full, with later frames — another
	// node's TReplicate among them — unread behind it. So no worker may
	// hold its slot while it waits on a peer: two nodes coordinating
	// writes at each other would each park their reader behind handlers
	// waiting for acks only the other's parked reader can take in. Two
	// rules keep every slot's hold time local. A route handler gives its
	// slot back before it waits for its replication quorum (release,
	// below). And TReplicate executes under its own budget, so an apply
	// never queues behind route handlers; what it does queue behind — the
	// pool's commit combiner — waits only on the local log.
	// TestCoordinatorsCannotStarveEachOther pins all of it.
	replSem := make(chan struct{}, inboundWorkers)
	// Sized buffered reader: a pipelined burst from a peer decodes
	// several frames per read(2), the symmetric twin of the coalesced
	// writer on the other side.
	br := bufio.NewReaderSize(nc, batchio.ReadBufferSize)
	var scratch []byte
	for {
		body, err := wire.ReadFrame(br, &scratch)
		if err != nil {
			return // EOF, peer reset, or framing error
		}
		// Decode before the next ReadFrame reuses scratch; the Msg owns
		// copies of every variable-length field.
		m := new(wire.Msg)
		derr := m.Decode(body)
		lane := sem
		if derr == nil && m.Type == wire.TReplicate {
			lane = replSem
		}
		lane <- struct{}{} // backpressure: stop reading at the cap
		reqWg.Add(1)
		go func() {
			defer reqWg.Done()
			held := true
			release := func() {
				if held {
					held = false
					<-lane
				}
			}
			defer release()
			var reply wire.Msg
			if derr != nil {
				reply = wire.Msg{Type: wire.TError, ReqID: m.ReqID, Value: []byte("bad peer frame: " + derr.Error())}
			} else {
				n.handlePeer(m, &reply, release)
				reply.ReqID = m.ReqID
			}
			bp := n.bufs.Get().(*[]byte)
			frame, err := reply.Append((*bp)[:0])
			if err != nil {
				n.cfg.Logf("p2p: encode %v reply: %v", reply.Type, err)
				frame, _ = (&wire.Msg{Type: wire.TError, ReqID: m.ReqID, Value: []byte("internal encode error")}).Append((*bp)[:0])
			}
			*bp = frame
			out <- bp // the writer always drains, even after a write error
		}()
	}
}

// connWriter flushes one inbound connection's response queue with
// coalesced vectored writes until the queue closes (batchio.WriteLoop),
// recycling frame buffers. After a failed or timed-out write it severs
// the socket (which also unblocks the connection's reader) and keeps
// draining so response producers never block on a dead peer.
func (n *Node) connWriter(nc net.Conn, out <-chan *[]byte, done chan<- struct{}) {
	defer close(done)
	batchio.WriteLoop(nc, out, nil, batchio.DefaultWriteTimeout,
		func(bp *[]byte) { n.bufs.Put(bp) },
		func(err error) {
			n.cfg.Logf("p2p: write to %v: %v", nc.RemoteAddr(), err)
			nc.Close()
		}, n.pwstats)
}

// handlePeer executes one decoded peer request into reply (reqID is
// filled by the caller). release gives back the caller's inbound worker
// slot early; a handler calls it once only waiting on peers remains.
func (n *Node) handlePeer(m, reply *wire.Msg, release func()) {
	*reply = wire.Msg{}
	switch m.Type {
	case wire.TPeerProbe:
		if m.Cluster != n.cfg.Cluster.Hash() {
			reply.Type = wire.TError
			reply.Value = []byte(fmt.Sprintf("cluster membership mismatch (yours %016x, mine %016x)", m.Cluster, n.cfg.Cluster.Hash()))
			return
		}
		// Probes carry client-serving addresses both ways: learn the
		// sender's, advertise ours. Every probe exchange teaches both ends,
		// so the Members table fills in without a separate gossip round.
		if len(m.ClientAddr) > 0 {
			n.learnClientAddr(int(m.Origin), string(m.ClientAddr))
		}
		n.addrMu.Lock()
		self := n.clientAddrs[n.cfg.Cluster.Self()]
		n.addrMu.Unlock()
		reply.Type = wire.TPeerProbeOK
		reply.Cluster = n.cfg.Cluster.Hash()
		reply.Origin = uint32(n.cfg.Cluster.Self())
		reply.Held = uint64(n.cfg.Pool.ReplicaCount())
		reply.ClientAddr = append(reply.ClientAddr[:0], self...)
	case wire.TRoute:
		n.handleRoute(m, reply, release)
	case wire.TRepair:
		n.handleRepair(m, reply)
	case wire.TTransfer:
		n.handleTransfer(m, reply)
	case wire.TReplicate:
		n.handleReplicate(m, reply)
	default:
		reply.Type = wire.TError
		reply.Value = []byte("unexpected peer message " + m.Type.String())
	}
}

// checkCluster verifies a peer request's membership fingerprint,
// filling reply with the refusal when it disagrees. Ownership is a pure
// function of the member list, so executing a request from a
// conflicting view would silently mis-place or mis-report data even
// when the sender's owner computation happens to coincide.
func (n *Node) checkCluster(m, reply *wire.Msg) bool {
	if m.Cluster == n.cfg.Cluster.Hash() {
		return true
	}
	reply.Type = wire.TError
	reply.Value = []byte(fmt.Sprintf("cluster membership mismatch (yours %016x, mine %016x)", m.Cluster, n.cfg.Cluster.Hash()))
	return false
}

// handleRoute executes one forwarded client request on the local pool.
// The replica check is what terminates routing: with full membership
// there is exactly one hop, so a mis-routed request means the sender
// disagrees about key placement and must hear an error, not a second
// forward. This node acts as the mutation's coordinator: inserts and
// deletes fan out to the key's co-replicas and the reply is withheld
// until a quorum of replicas (this one included) has committed — the
// sender may be failing over from the dead primary, so ANY live replica
// can coordinate. release is called once the local execution is done and
// only the quorum wait remains (see handleConn).
func (n *Node) handleRoute(m, reply *wire.Msg, release func()) {
	if !n.checkCluster(m, reply) {
		return
	}
	if !n.cfg.Cluster.Owns(m.Key) {
		reply.Type = wire.TError
		reply.Value = []byte(fmt.Sprintf("not a replica of %v (its region is %d, mine is %d)",
			m.Key, n.cfg.Cluster.OwnerOf(m.Key), n.cfg.Cluster.Self()))
		return
	}
	pool := n.cfg.Pool
	origin := m.Origin
	if origin == wire.OriginAuto {
		origin = uint32(pool.AutoOrigin(m.Key))
	} else if origin >= uint32(pool.Overlay().N()) {
		reply.Type = wire.TError
		reply.Value = []byte(fmt.Sprintf("origin %d out of range (%d cluster members)", origin, pool.Overlay().N()))
		return
	}
	var start time.Time
	traced := m.Traced && n.tracer != nil
	if traced {
		start = time.Now()
		defer func() {
			// route_exec is the executing-side span of a relayed request:
			// it nests inside the relay's forward span and the sender's
			// peer_call span under the same trace ID.
			n.tracer.Record(m.Trace, trace.KindRouteExec, start, time.Since(start), uint64(m.RouteKind))
		}()
	}
	var trc uint64
	if m.Traced {
		trc = m.Trace
	}
	// Start the replication fan-out before the local execution so the
	// co-replicas' WAL commits overlap this node's; the quorum wait
	// below then usually finds the acks already in.
	var repl chan error
	if (m.RouteKind == wire.TInsert || m.RouteKind == wire.TDelete) && n.cfg.Cluster.Quorum() > 1 {
		repl = make(chan error, 1)
		n.ReplicateAsync(m.RouteKind, m.Key, origin, m.Value, trc, func(err error) { repl <- err })
	}
	switch m.RouteKind {
	case wire.TInsert:
		// Each inbound request decodes into its own Msg, so m.Value is a
		// private allocation the store may retain directly.
		res, err := pool.Insert(int(origin), m.Key, m.Value)
		if err != nil {
			reply.Type = wire.TError
			reply.Value = []byte("storage: " + err.Error())
			return
		}
		reply.Type = wire.TInsertOK
		reply.Insert = wire.InsertReplyFrom(res)
	case wire.TLookup:
		res := pool.Lookup(int(origin), m.Key)
		reply.Type = wire.TLookupOK
		reply.Lookup = wire.LookupReplyFrom(res)
	case wire.TDelete:
		removed, err := pool.Delete(int(origin), m.Key)
		if err != nil {
			reply.Type = wire.TError
			reply.Value = []byte("storage: " + err.Error())
			return
		}
		reply.Type = wire.TDeleteOK
		reply.Deleted = uint32(removed)
	}
	if repl != nil {
		release()
		if rerr := <-repl; rerr != nil {
			// Local commit survived but the quorum did not: the write must
			// not be acked (the client may never find it after this node
			// dies). Anti-entropy reconciles the surviving local copy.
			reply.Type = wire.TError
			reply.Value = []byte("replication: " + rerr.Error())
		}
	}
}

// handleReplicate applies one fanned-out mutation from the coordinating
// replica. It is a leaf operation: the apply is local (WAL-committed
// like any pool mutation) and never re-forwards or re-replicates — the
// coordinator is the one counting acks. The replica check mirrors
// handleRoute's: a TReplicate for a key this node does not replicate
// means the sender's placement view disagrees.
func (n *Node) handleReplicate(m, reply *wire.Msg) {
	if !n.checkCluster(m, reply) {
		return
	}
	if !n.cfg.Cluster.Owns(m.Key) {
		reply.Type = wire.TError
		reply.Value = []byte(fmt.Sprintf("not a replica of %v (its region is %d, mine is %d)",
			m.Key, n.cfg.Cluster.OwnerOf(m.Key), n.cfg.Cluster.Self()))
		return
	}
	pool := n.cfg.Pool
	origin := m.Origin
	if origin == wire.OriginAuto {
		origin = uint32(pool.AutoOrigin(m.Key))
	} else if origin >= uint32(pool.Overlay().N()) {
		reply.Type = wire.TError
		reply.Value = []byte(fmt.Sprintf("origin %d out of range (%d cluster members)", origin, pool.Overlay().N()))
		return
	}
	if m.Traced && n.tracer != nil {
		start := time.Now()
		defer func() {
			n.tracer.Record(m.Trace, trace.KindReplicateExec, start, time.Since(start), uint64(m.RouteKind))
		}()
	}
	switch m.RouteKind {
	case wire.TInsert:
		if _, err := pool.Insert(int(origin), m.Key, m.Value); err != nil {
			reply.Type = wire.TError
			reply.Value = []byte("storage: " + err.Error())
			return
		}
	case wire.TDelete:
		if _, err := pool.Delete(int(origin), m.Key); err != nil {
			reply.Type = wire.TError
			reply.Value = []byte("storage: " + err.Error())
			return
		}
	}
	reply.Type = wire.TReplicateOK
}

// repairBudget bounds the entry bytes of one TRepairOK page well below
// wire.MaxFrame, leaving room for the frame and body headers. A single
// entry above the budget still ships alone (wire.MaxValue guarantees it
// fits a one-entry page), so pagination always makes progress.
const repairBudget = wire.MaxFrame / 2

// handleRepair answers one page of a pull-style anti-entropy request:
// entries this node holds whose keys belong to the asked-for region,
// streamed in the store's stable (shard, key) order starting at the
// request's cursor, up to the page byte budget. When the budget cuts the
// page, the reply carries More plus the cursor of the first withheld
// entry, and iteration stops right there: the walk never visits (or
// locks) the shards past the stop point, and the next page seeks
// straight to the cursor, so a page costs O(log n + page). Entry values
// alias store memory, which never mutates stored bytes, so encoding
// after the scan is safe.
func (n *Node) handleRepair(m, reply *wire.Msg) {
	if !n.checkCluster(m, reply) {
		return
	}
	if int(m.Region) >= n.cfg.Cluster.N() {
		reply.Type = wire.TError
		reply.Value = []byte(fmt.Sprintf("region %d out of range (%d members)", m.Region, n.cfg.Cluster.N()))
		return
	}
	var start time.Time
	if m.Traced && n.tracer != nil {
		start = time.Now()
		defer func() {
			n.tracer.Record(m.Trace, trace.KindRepairExec, start, time.Since(start), uint64(m.Region))
		}()
	}
	var entries []wire.TransferEntry
	size, oversize := 0, 0
	cur := discovery.ReplicaCursor{Shard: m.Cursor.Shard, Key: m.Cursor.Key}
	next, done := n.cfg.Pool.ForEachReplicaFrom(cur, func(origin uint32, key idspace.ID, value []byte) bool {
		if n.cfg.Cluster.OwnerOf(key) != int(m.Region) {
			return true // foreign region: skip, keep walking
		}
		if len(value) > wire.MaxValue {
			// Cannot ride any page — only a direct library placement can
			// produce such a value (the serving layer caps inserts at
			// MaxValue). Count it and keep walking: a skipped entry
			// must be loud, never a silent repair gap.
			oversize++
			return true
		}
		cost := wire.EntryOverhead + len(value)
		if len(entries) > 0 && size+cost > repairBudget {
			return false // page full: stop the walk at this entry
		}
		entries = append(entries, wire.TransferEntry{Origin: origin, Key: key, Value: value})
		size += cost
		return true
	})
	if oversize > 0 {
		n.repairLogf("p2p: repair of region %d skipped %d replicas above wire.MaxValue (unrepairable; placed by direct import?)", m.Region, oversize)
	}
	reply.Type = wire.TRepairOK
	reply.Region = m.Region
	reply.Entries = entries
	if !done {
		reply.More = true
		reply.Cursor = wire.RepairCursor{Shard: next.Shard, Key: next.Key}
		n.repairLogf("p2p: repair of region %d paged at budget: %d entries (%d bytes) sent, cursor handed back", m.Region, len(entries), size)
	}
}

// handleTransfer stores pushed entries for regions this node owns.
// Entries for other regions are refused by not counting them: the sender
// keeps anything the accepted count does not cover. The owned entries of a batch are
// imported together (Pool.ImportBatch): per shard, one lock acquisition
// and one group-committed WAL append cover the whole batch, instead of
// a lock-log-fsync cycle per entry.
func (n *Node) handleTransfer(m, reply *wire.Msg) {
	if !n.checkCluster(m, reply) {
		return
	}
	if m.Traced && n.tracer != nil {
		start := time.Now()
		defer func() {
			n.tracer.Record(m.Trace, trace.KindTransferExec, start, time.Since(start), uint64(len(m.Entries)))
		}()
	}
	// Decoded entry values are freshly allocated (see wire), safe for the
	// store to retain.
	batch := make([]discovery.ReplicaEntry, 0, len(m.Entries))
	for i := range m.Entries {
		e := &m.Entries[i]
		if !n.cfg.Cluster.Owns(e.Key) {
			n.cfg.Logf("p2p: transfer refused: key %v not owned here", e.Key)
			continue
		}
		batch = append(batch, discovery.ReplicaEntry{Origin: e.Origin, Key: e.Key, Value: e.Value})
	}
	// accepted (not fresh) is what the sender needs: it may drop its
	// copy of every entry this pool now holds, whether or not the import
	// had to write anything.
	accepted, _, err := n.cfg.Pool.ImportBatch(batch)
	if err != nil {
		n.cfg.Logf("p2p: transfer apply: %v", err)
	}
	reply.Type = wire.TTransferOK
	reply.Accepted = uint32(accepted)
}

// Join probes every peer until it answers or the timeout passes. It
// returns nil when the whole cluster is reachable and an error naming
// the peers that are not; the caller decides whether to serve anyway
// (the usual choice — a node serves its own region regardless, and dead
// peers are retried lazily by the first forwarded request).
func (n *Node) Join(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	c := n.cfg.Cluster
	errs := make([]error, c.N())
	var wg sync.WaitGroup
	for i := 0; i < c.N(); i++ {
		if i == c.Self() {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				held, err := n.tr.Probe(i)
				if err == nil {
					n.cfg.Logf("p2p: joined %s (region %d, %d replicas held)", c.Addr(i), i, held)
					errs[i] = nil
					return
				}
				errs[i] = err
				if time.Now().After(deadline) {
					return
				}
				select {
				case <-time.After(100 * time.Millisecond):
				case <-n.quit:
					errs[i] = errNodeClosed
					return
				}
			}
		}(i)
	}
	wg.Wait()
	var bad []string
	for i, err := range errs {
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: %v", c.Addr(i), err))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("p2p: join incomplete: %d peers unreachable: %v", len(bad), bad)
	}
	return nil
}

// transferBatch bounds one TTransfer request's entry count; transfer
// batches also respect repairBudget in bytes so every batch is
// encodable within wire.MaxFrame.
const transferBatch = 128

// Handoff pushes every locally-held entry whose key this node does
// not replicate to the key's primary owner, dropping the local copy
// once the owner has acknowledged the whole batch. It is how a node
// sheds data that became foreign — typically state recovered from a
// data directory written under a different membership or replication
// factor. Data the owner does not fully accept is kept locally for a
// later retry. Each owner is probe-verified before any batch is sent:
// Handoff is the one path that DELETES local data on a peer's say-so,
// so a peer whose membership fingerprint disagrees must never receive
// (and ack) a batch under a conflicting ownership view.
func (n *Node) Handoff() (moved int, err error) {
	byOwner := make(map[int][]wire.TransferEntry)
	n.cfg.Pool.ForEachReplica(func(origin uint32, key idspace.ID, value []byte) {
		if n.cfg.Cluster.Owns(key) {
			return // key lives here (owner or co-replica): nothing to shed
		}
		owner := n.cfg.Cluster.OwnerOf(key)
		byOwner[owner] = append(byOwner[owner], wire.TransferEntry{Origin: origin, Key: key, Value: value})
	})
	var firstErr error
	for owner, entries := range byOwner {
		if _, perr := n.tr.Probe(owner); perr != nil {
			if firstErr == nil {
				firstErr = perr
			}
			continue // keep the data; never drop on an unverified peer
		}
		for len(entries) > 0 {
			select {
			case <-n.quit:
				return moved, errNodeClosed
			default:
			}
			// Batch by count and by bytes, so a batch always fits one
			// frame. An entry too large to transfer at all (its value
			// nearly fills a frame alone) is kept locally and logged.
			size, take := 0, 0
			for take < len(entries) && take < transferBatch {
				cost := wire.EntryOverhead + len(entries[take].Value)
				if size+cost > repairBudget {
					break
				}
				size += cost
				take++
			}
			if take == 0 {
				n.cfg.Logf("p2p: replica %v too large to transfer (%d bytes); keeping it local", entries[0].Key, len(entries[0].Value))
				entries = entries[1:]
				continue
			}
			batch := entries[:take]
			entries = entries[take:]
			req := &wire.Msg{Type: wire.TTransfer, Cluster: n.cfg.Cluster.Hash(), Entries: batch}
			if tr := n.tracer.Sample(); tr != 0 {
				req.Traced = true
				req.Trace = tr
			}
			resp, cerr := n.tr.Call(owner, req)
			if cerr != nil {
				if firstErr == nil {
					firstErr = cerr
				}
				break
			}
			// Distinguish a refusal from a short accept: a TError (or
			// TWrongView) reply carries the peer's actual reason — e.g. a
			// membership fingerprint mismatch — and Accepted is garbage in
			// that frame, so formatting it as "accepted 0 of N" would bury
			// the diagnosis (mirrors PullRepair's response handling).
			switch {
			case resp.Type == wire.TError:
				if firstErr == nil {
					firstErr = fmt.Errorf("p2p: %s: transfer refused: %s", n.cfg.Cluster.Addr(owner), resp.ErrorText())
				}
			case resp.Type != wire.TTransferOK:
				if firstErr == nil {
					firstErr = fmt.Errorf("p2p: %s: unexpected transfer response %v", n.cfg.Cluster.Addr(owner), resp.Type)
				}
			case int(resp.Accepted) != len(batch):
				if firstErr == nil {
					firstErr = fmt.Errorf("p2p: %s accepted %d of %d transferred replicas", n.cfg.Cluster.Addr(owner), resp.Accepted, len(batch))
				}
			}
			if resp.Type != wire.TTransferOK || int(resp.Accepted) != len(batch) {
				break
			}
			for i := range batch {
				if _, derr := n.cfg.Pool.DropReplica(batch[i].Key); derr != nil && firstErr == nil {
					firstErr = derr
				}
			}
			moved += len(batch)
		}
	}
	return moved, firstErr
}

// PullRepair asks peer i for every replica of region that the peer
// holds (region identity is the key's primary owner; a replicated node
// pulls each region it replicates in turn — see AntiEntropy), streaming
// the peer's store in budgeted pages: each TRepairOK that was cut by
// the byte budget carries a resume cursor, which the loop sends back
// verbatim until the peer reports the walk complete — so any amount of
// repairable state converges, not just the first frame's worth. It is
// additive (the peer keeps its copies; Handoff on the peer is the
// shedding side) and idempotent — a byte-identical entry is skipped
// by the import with no write-ahead record, so applied counts only the
// replicas this pull actually changed: 0 means the peer and this node
// were already in sync for the region, however many pages were walked.
func (n *Node) PullRepair(i, region int) (applied int, err error) {
	// Verify the peer shares this cluster's membership view first; a
	// peer with a different member list computes different owners, and
	// its idea of "region Self" is not this node's region.
	if _, err := n.tr.Probe(i); err != nil {
		return 0, err
	}
	// One sampling decision covers the whole paged walk, so a sampled
	// repair's pages share a trace ID (one peer_call + repair_exec pair
	// per page).
	tr := n.tracer.Sample()
	type fetched struct {
		resp *wire.Msg
		err  error
	}
	fetch := func(cursor wire.RepairCursor) <-chan fetched {
		ch := make(chan fetched, 1) // the reply never blocks its deliverer, even once the pull has returned
		req := &wire.Msg{Type: wire.TRepair, Cluster: n.cfg.Cluster.Hash(), Region: uint32(region), Cursor: cursor}
		if tr != 0 {
			req.Traced = true
			req.Trace = tr
		}
		n.tr.Go(i, req, func(resp *wire.Msg, err error) { ch <- fetched{resp, err} })
		return ch
	}
	var cursor wire.RepairCursor
	next := fetch(cursor)
	for page := 0; ; page++ {
		select {
		case <-n.quit:
			return applied, errNodeClosed
		default:
		}
		f := <-next
		if f.err != nil {
			return applied, f.err
		}
		resp := f.resp
		if resp.Type == wire.TError {
			return applied, fmt.Errorf("p2p: %s: repair refused: %s", n.cfg.Cluster.Addr(i), resp.ErrorText())
		}
		if resp.Type != wire.TRepairOK {
			return applied, fmt.Errorf("p2p: %s: unexpected repair response %v", n.cfg.Cluster.Addr(i), resp.Type)
		}
		// A well-behaved responder's cursor always advances; a stuck one
		// would otherwise loop forever. Page size is irrelevant: a
		// responder resending the same NON-empty page with the same
		// cursor is just as stuck (we would re-import the same batch
		// every iteration), so any repeated cursor under More is fatal —
		// after this page has landed, like every page before it.
		stuck := resp.More && resp.Cursor == cursor
		if resp.More && !stuck {
			// One page of read-ahead: the peer walks and ships the next
			// page while this one is imported (a WAL commit per shard), so
			// a restarted node's catch-up overlaps its two halves instead
			// of alternating them.
			cursor = resp.Cursor
			next = fetch(cursor)
		}
		// Each accepted page lands as one batch: per shard, one lock
		// acquisition and one group-committed WAL append for the page's
		// entries, instead of a cycle per entry.
		batch := make([]discovery.ReplicaEntry, 0, len(resp.Entries))
		for j := range resp.Entries {
			e := &resp.Entries[j]
			if !n.cfg.Cluster.Owns(e.Key) {
				continue // a confused peer cannot plant foreign data here
			}
			batch = append(batch, discovery.ReplicaEntry{Origin: e.Origin, Key: e.Key, Value: e.Value})
		}
		// Count fresh imports only: a steady-state re-walk of an
		// in-sync peer pulls pages but applies nothing, and must read
		// as 0 — periodic anti-entropy logs would otherwise report the
		// full keyspace as "pulled" every pass forever.
		_, fresh, ierr := n.cfg.Pool.ImportBatch(batch)
		applied += fresh
		if ierr != nil {
			return applied, ierr
		}
		if !resp.More {
			if page > 0 {
				n.cfg.Logf("p2p: pull repair from %s converged after %d pages (%d replicas)", n.cfg.Cluster.Addr(i), page+1, applied)
			}
			return applied, nil
		}
		if stuck {
			return applied, fmt.Errorf("p2p: %s: repair cursor made no progress at page %d (%d entries re-sent)",
				n.cfg.Cluster.Addr(i), page, len(resp.Entries))
		}
	}
}

// AntiEntropy runs one full maintenance pass: shed replicas of keys
// this node no longer holds to their owners, then pull every region
// this node replicates from every other peer — one peer at a time, that
// peer's regions side by side. On a steady cluster both
// halves are no-ops; after a crash, restart, or membership change they
// converge data back onto the replica set — a node that missed quorum
// writes while dead catches up here. The error (if any) aggregates the
// whole pass: the handoff failure plus one entry per unreachable peer,
// so an operator sees exactly which peers kept the pass incomplete
// while every reachable peer's regions still converged.
func (n *Node) AntiEntropy() (moved, pulled int, err error) {
	var handoffErr error
	moved, handoffErr = n.Handoff()
	regions := n.cfg.Cluster.ReplicatedRegions()
	var unreachable []string
	for i := 0; i < n.cfg.Cluster.N(); i++ {
		if i == n.cfg.Cluster.Self() {
			continue
		}
		select {
		case <-n.quit:
			return moved, pulled, errNodeClosed
		default:
		}
		// A peer's regions are pulled side by side. Each pull is a chain
		// of dependent pages (the next cursor comes back with the page),
		// so one chain at a time leaves the peer's other shard and this
		// node's importer idle between pages; the chains' imports meet in
		// the pool's commit combiner.
		got := make([]int, len(regions))
		errs := make([]error, len(regions))
		var wg sync.WaitGroup
		for k, region := range regions {
			wg.Add(1)
			go func(k, region int) {
				defer wg.Done()
				got[k], errs[k] = n.PullRepair(i, region)
			}(k, region)
		}
		wg.Wait()
		var peerErr error
		for k := range regions {
			pulled += got[k]
			if peerErr == nil {
				peerErr = errs[k]
			}
		}
		if peerErr != nil {
			unreachable = append(unreachable, fmt.Sprintf("%s: %v", n.cfg.Cluster.Addr(i), peerErr))
		}
	}
	switch {
	case handoffErr != nil && len(unreachable) > 0:
		err = fmt.Errorf("p2p: anti-entropy incomplete: handoff: %v; %d peers unreachable: %v", handoffErr, len(unreachable), unreachable)
	case handoffErr != nil:
		err = handoffErr
	case len(unreachable) > 0:
		err = fmt.Errorf("p2p: anti-entropy incomplete: %d peers unreachable: %v", len(unreachable), unreachable)
	}
	return moved, pulled, err
}
