// Package server is discoverynode's client-facing layer: a TCP server
// speaking the internal/wire binary protocol in front of a discovery.Pool.
//
// # Architecture
//
// Each accepted connection gets a reader goroutine and a writer goroutine.
// The reader decodes frames and dispatches keyed requests to a bounded
// per-shard queue; one worker goroutine per shard pops requests and
// executes them on the shard that owns the key (the same key-hash mapping
// discovery.Pool uses), so one shard's requests execute in queue order.
// Responses carry the request's correlator back and are
// handed to the connection's writer, which means a client may pipeline
// requests freely — responses for different shards can complete out of
// order, and the reqID is what ties them together.
//
// # Batching
//
// Batches, not single requests, are the unit of work on both halves of
// the hot path. A shard worker blocks for one task, then greedily drains
// whatever else is already queued (up to MaxBatch) and executes the run
// as one Pool.ExecBatch: one shard-lock acquisition, and on durable
// pools one multi-record write-ahead append whose single fsync covers
// every mutation in the batch — and in whatever the pool's commit
// combiner merged it with (replica applies from other coordinators,
// repair pages) — acks are only sent after that shared sync returns, so
// the write-ahead contract is per-response intact. A
// connection writer likewise blocks for one encoded response, drains the
// rest of its queue (up to batchio's fixed frame and byte budget), and hands
// the run to the kernel as one writev(2) via net.Buffers, so a pipelining
// client costs about one syscall per batch instead of one per response.
// Under light load every batch has size one and behavior is identical to
// the unbatched path; batches emerge exactly when queues are non-empty,
// which is when the amortization pays.
//
// # Backpressure
//
// Shard queues are bounded. When a queue is full the reader blocks before
// reading the next frame, which stops draining the connection's socket
// and lets TCP flow control push back on the client — the server never
// buffers an unbounded number of requests. Stats requests carry no key
// and are answered inline by the reader.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
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

// Config parameterizes a Server.
type Config struct {
	// Pool executes requests. Required.
	Pool *discovery.Pool
	// QueueDepth bounds each shard's request queue (default 128).
	QueueDepth int
	// MaxBatch bounds how many queued requests one shard worker drains
	// and executes as a single Pool.ExecBatch (default 64; capped at
	// QueueDepth+1 since a drain can never observe more). Mutations in a
	// batch share one write-ahead append and one fsync on durable pools.
	MaxBatch int
	// WriteTimeout bounds any single response write (default 30s). A
	// client that stops reading responses trips it and is disconnected,
	// which is what keeps one stalled connection from wedging a shard
	// worker — and with it 1/shards of the keyspace — indefinitely.
	WriteTimeout time.Duration
	// Owns reports whether this process's pool owns key. nil means the
	// pool owns the whole keyspace (the single-process deployment).
	// Keyed requests for keys outside the region are handed to Forward
	// instead of a shard queue.
	Owns func(key idspace.ID) bool
	// Forward relays one keyed request this process does not own —
	// typically to the owning cluster node (internal/p2p). respond must
	// be called exactly once, from any goroutine; the server stamps the
	// request's reqID onto the response and delivers it. value is owned
	// by the callee. trc is the request's sampled trace ID (0 =
	// untraced) for the forwarder to propagate across the peer hop.
	// Required when Owns is set.
	Forward func(typ wire.Type, key idspace.ID, origin uint32, value []byte, trc uint64, respond func(*wire.Msg))
	// Replicate, when set, fans one locally-accepted mutation out to the
	// key's co-replicas and calls done once a quorum of them (coordinator
	// excluded) has committed, or cannot — p2p.Node.ReplicateAsync has
	// the right shape. It must not block on a peer, and done may run on
	// any goroutine, including the caller's before Replicate returns. The
	// fan-out runs concurrently with local shard execution; the ack is
	// withheld until both land, and a fan-out error turns the reply into
	// TError even when the local commit succeeded (the replicas reconcile
	// via anti-entropy). Leave nil with replication 1.
	Replicate func(typ wire.Type, key idspace.ID, origin uint32, value []byte, trc uint64, done func(error))
	// Replication is the cluster's replication factor as reported to
	// cluster-smart clients in TMembersOK; 0 is reported as 1.
	Replication uint32
	// ClusterHash and Members enable cluster-smart clients. ClusterHash
	// is the membership fingerprint (p2p.Cluster.Hash); Members returns
	// the client-serving address table by cluster slot ("" = unknown;
	// p2p.Node.Members has the right shape). Set both or neither: with
	// them, TMembers is answered with the table, and TRoute frames from
	// clients execute locally after a fingerprint check — a mismatch is
	// refused with TWrongView (refresh and retry), a matched-fingerprint
	// misroute with TError (a bug, not staleness). Routed requests are
	// never forwarded: route-direct means one hop, enforced server-side.
	ClusterHash uint64
	Members     func() []string
	// ReadBuffer sizes each connection's buffered reader, letting a
	// pipelining client's burst decode several frames per read(2).
	// 0 selects the 32 KiB default; negative disables buffering (frames
	// are then read with at most one syscall of readahead — for tests
	// that need byte-accurate backpressure).
	ReadBuffer int
	// Metrics, when non-nil, receives the serving layer's
	// instrumentation: server.requests{op=...}, server.routed /
	// forwarded / wrongview / shed counters, per-op service-time and
	// queue-wait histograms, response coalescing stats, and live
	// per-shard queue depth gauges. nil leaves the hot path unmetered
	// (not even timestamped).
	Metrics *metrics.Registry
	// Tracer, when non-nil, records per-request spans for sampled
	// requests (internal/trace): dispatch, queue wait, WAL commit share,
	// shard execution share, forward hop, response flush. Direct client
	// requests are sampled by the tracer's own rate; TRoute requests are
	// traced iff their wire trailer carries a trace ID, so a trace joins
	// across every node the request touches. nil disables tracing
	// entirely — the hot path is not even timestamped.
	Tracer *trace.Tracer
	// SlowThreshold, when positive, logs one rate-limited span breakdown
	// (queue/exec/WAL shares, batch size, trace ID) for every keyed
	// request whose enqueue→response time exceeds it.
	SlowThreshold time.Duration
	// Logf, when set, receives connection-level error lines.
	Logf func(format string, args ...any)
}

// Server serves the wire protocol over TCP. Create with New, start with
// Serve or Start, stop with Close.
type Server struct {
	pool         *discovery.Pool
	logf         func(format string, args ...any)
	owns         func(key idspace.ID) bool
	forward      func(typ wire.Type, key idspace.ID, origin uint32, value []byte, trc uint64, respond func(*wire.Msg))
	replicate    func(typ wire.Type, key idspace.ID, origin uint32, value []byte, trc uint64, done func(error))
	replication  uint32
	tracer       *trace.Tracer
	slowNanos    int64
	slowLogf     func(format string, args ...any)
	queues       []chan task
	writeTimeout time.Duration
	maxBatch     int
	readBuffer   int
	clusterHash  uint64
	members      func() []string

	ln rpc.Listener

	done     chan struct{}
	readerWg sync.WaitGroup // connection readers
	workerWg sync.WaitGroup // shard workers
	connWg   sync.WaitGroup // writers and per-connection drainers

	bufs sync.Pool // *[]byte response frame buffers

	// Instrumentation (all nil without Config.Metrics; metered guards
	// the timestamping so the unmetered hot path stays untouched).
	metered    bool
	reqInsert  *metrics.Counter
	reqLookup  *metrics.Counter
	reqDelete  *metrics.Counter
	reqStats   *metrics.Counter
	routed     *metrics.Counter   // TRoute frames executed locally
	forwarded  *metrics.Counter   // keyed requests relayed to their owner
	wrongview  *metrics.Counter   // TRoute refusals for a stale fingerprint
	shed       *metrics.Counter   // connections severed by a stalled writer
	queueWait  *metrics.Histogram // enqueue → batch execution start
	svcInsert  *metrics.Histogram // per-op share of batch service time
	svcLookup  *metrics.Histogram
	svcDelete  *metrics.Histogram
	batchTasks *metrics.Histogram // tasks per executed shard batch
	wstats     batchio.Stats      // response writev coalescing
}

// task is one keyed request bound for a shard worker.
type task struct {
	c      *conn
	typ    wire.Type
	reqID  uint64
	key    idspace.ID
	origin uint32
	value  []byte    // insert payload, owned by the task
	enq    time.Time // enqueue instant; zero when untimestamped
	trace  uint64    // sampled trace ID; 0 = untraced
	repl   *replJoin // in-flight replica fan-out; nil = none
}

// replJoin joins the two halves of a replicated mutation — the local
// commit and the replica quorum — with no goroutine parked on either:
// whichever half lands second sends the reply.
type replJoin struct {
	s     *Server
	c     *conn
	typ   wire.Type
	reqID uint64
	trace uint64

	mu       sync.Mutex
	half     bool     // one half has landed
	answered bool     // the reply is sent, or on its way
	reply    wire.Msg // the local half's reply
	err      error    // the quorum half's failure
}

// local lands the local half: the shard's reply to the request. A local
// failure answers at once — the mutation did not execute here, whatever
// the replicas did with it.
func (j *replJoin) local(m *wire.Msg, failed bool) {
	j.mu.Lock()
	j.reply = *m
	send := !j.answered && (failed || j.half)
	j.half = true
	j.answered = j.answered || send
	qerr := j.err
	j.mu.Unlock()
	if send {
		j.finish(true, qerr)
	}
}

// quorum lands the fan-out's outcome. It runs wherever the fan-out's
// last peer call completed — typically a peer connection's reader — so
// it never blocks on the client.
func (j *replJoin) quorum(err error) {
	j.mu.Lock()
	j.err = err
	send := !j.answered && j.half
	j.half = true
	j.answered = j.answered || send
	j.mu.Unlock()
	if send {
		j.finish(false, err)
	}
}

// finish sends the joined reply and retires the request. qerr is the
// quorum half's failure as read under j.mu — a local failure answers
// before the quorum lands, which may then still be writing j.err. When
// it may not block and the client's response queue is full, the send
// moves to a goroutine of its own (the connection's drainer waits for it
// through inflight).
func (j *replJoin) finish(mayBlock bool, qerr error) {
	s, m := j.s, &j.reply
	if qerr != nil && m.Type != wire.TError {
		// Local commit without quorum must not be acked: the client would
		// treat it as replicated. The replicas reconcile via anti-entropy.
		s.logf("server: %v: %v", j.typ, qerr)
		m = &wire.Msg{Type: wire.TError, ReqID: j.reqID, Value: []byte("replication: " + qerr.Error())}
	}
	f := s.encode(m, j.trace)
	if !mayBlock {
		select {
		case j.c.out <- f:
		case <-j.c.dead:
			s.bufs.Put(f.bp)
		default:
			go func() {
				s.offer(j.c, f)
				j.c.inflight.Done()
			}()
			return
		}
	} else {
		s.offer(j.c, f)
	}
	j.c.inflight.Done()
}

// outFrame is one encoded response bound for a connection writer: the
// pooled frame buffer plus the trace context the flush span needs.
type outFrame struct {
	bp    *[]byte
	trace uint64 // trace ID of the originating request; 0 = untraced
	enq   int64  // unix-nano enqueue instant; set only when traced
}

// conn pairs a network connection with its outbound response queue.
type conn struct {
	nc       net.Conn
	out      chan outFrame // encoded response frames (pooled)
	dead     chan struct{} // closed when the writer gives up
	deadOnce sync.Once
	inflight sync.WaitGroup // keyed requests not yet answered
}

// kill marks the connection's writer as gone so shard workers stop
// offering it responses.
func (c *conn) kill() { c.deadOnce.Do(func() { close(c.dead) }) }

// New builds a Server and starts its shard workers. The server is ready
// for Serve immediately.
func New(cfg Config) (*Server, error) {
	if cfg.Pool == nil {
		return nil, errors.New("server: Config.Pool is required")
	}
	if cfg.Owns != nil && cfg.Forward == nil {
		return nil, errors.New("server: Config.Forward is required when Owns is set")
	}
	if (cfg.ClusterHash == 0) != (cfg.Members == nil) {
		return nil, errors.New("server: Config.ClusterHash and Members must be set together")
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 128
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	wt := cfg.WriteTimeout
	if wt <= 0 {
		wt = batchio.DefaultWriteTimeout
	}
	maxBatch := cfg.MaxBatch
	if maxBatch <= 0 {
		maxBatch = 64
	}
	if maxBatch > depth+1 {
		maxBatch = depth + 1 // one blocking receive + a full queue drain
	}
	s := &Server{
		pool:         cfg.Pool,
		logf:         logf,
		owns:         cfg.Owns,
		forward:      cfg.Forward,
		replicate:    cfg.Replicate,
		replication:  cfg.Replication,
		tracer:       cfg.Tracer,
		slowNanos:    int64(cfg.SlowThreshold),
		queues:       make([]chan task, cfg.Pool.NumShards()),
		writeTimeout: wt,
		maxBatch:     maxBatch,
		readBuffer:   cfg.ReadBuffer,
		clusterHash:  cfg.ClusterHash,
		members:      cfg.Members,
		done:         make(chan struct{}),
	}
	if s.replication == 0 {
		s.replication = 1
	}
	s.bufs.New = func() any {
		b := make([]byte, 0, 512)
		return &b
	}
	if s.slowNanos > 0 {
		// A saturated run makes every request "slow"; the limiter keeps
		// the breakdowns to a bounded trickle and counts what it drops.
		s.slowLogf = ratelog.New(4, 2).Wrap(logf)
	}
	if reg := cfg.Metrics; reg != nil {
		s.metered = true
		s.reqInsert = reg.Counter("server.requests{op=insert}")
		s.reqLookup = reg.Counter("server.requests{op=lookup}")
		s.reqDelete = reg.Counter("server.requests{op=delete}")
		s.reqStats = reg.Counter("server.requests{op=stats}")
		s.routed = reg.Counter("server.routed")
		s.forwarded = reg.Counter("server.forwarded")
		s.wrongview = reg.Counter("server.wrongview")
		s.shed = reg.Counter("server.shed")
		s.queueWait = reg.Histogram("server.queue_wait_seconds", 1e-9)
		s.svcInsert = reg.Histogram("server.service_seconds{op=insert}", 1e-9)
		s.svcLookup = reg.Histogram("server.service_seconds{op=lookup}", 1e-9)
		s.svcDelete = reg.Histogram("server.service_seconds{op=delete}", 1e-9)
		s.batchTasks = reg.Histogram("server.batch_tasks", 1)
		s.wstats = batchio.Stats{
			Writes:         reg.Counter("server.writes"),
			Frames:         reg.Counter("server.frames"),
			Bytes:          reg.Counter("server.write_bytes"),
			FramesPerWrite: reg.Histogram("server.frames_per_write", 1),
		}
		reg.GaugeFunc("server.connections", func() float64 { return float64(s.ln.Len()) })
	}
	for i := range s.queues {
		s.queues[i] = make(chan task, depth)
		if cfg.Metrics != nil {
			q := s.queues[i]
			cfg.Metrics.GaugeFunc(fmt.Sprintf("server.queue_depth{shard=%d}", i), func() float64 {
				return float64(len(q))
			})
		}
		s.workerWg.Add(1)
		go s.shardWorker(i)
	}
	return s, nil
}

// Start listens on addr and serves in a background goroutine, returning
// the bound address (useful with ":0").
func (s *Server) Start(addr string) (net.Addr, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go s.Serve(lis) //nolint:errcheck // an accept error ends serving
	return lis.Addr(), nil
}

// Serve accepts connections on lis until Close. It returns nil after a
// clean shutdown and the accept error otherwise.
func (s *Server) Serve(lis net.Listener) error {
	if !s.ln.Bind(lis) {
		return errors.New("server: already closed")
	}
	return s.ln.Serve(func(nc net.Conn) {
		c := &conn{
			nc:   nc,
			out:  make(chan outFrame, 64),
			dead: make(chan struct{}),
		}
		s.connWg.Add(1)
		go s.writeLoop(c)
		s.readerWg.Add(1)
		go s.readLoop(c)
	})
}

// Close shuts the server down: stop accepting, sever connections, drain
// the shard queues, and wait for every goroutine. Safe to call once.
func (s *Server) Close() {
	if !s.ln.Close() {
		return
	}
	close(s.done)
	// Readers stop (their sockets are closed), so no new tasks enter the
	// queues; then workers drain what remains; then writers finish.
	s.readerWg.Wait()
	for _, q := range s.queues {
		close(q)
	}
	s.workerWg.Wait()
	s.connWg.Wait()
}

// readLoop decodes frames off one connection and dispatches them.
func (s *Server) readLoop(c *conn) {
	defer s.readerWg.Done()
	defer func() {
		// The reader is the only task producer for this connection. Once
		// it exits, wait out in-flight tasks, then let the writer drain
		// and close the socket.
		s.connWg.Add(1)
		go func() {
			defer s.connWg.Done()
			c.inflight.Wait()
			close(c.out)
		}()
	}()

	// Buffered reads: a pipelining client's burst decodes several frames
	// per read(2). ReadBuffer < 0 keeps the raw socket for tests that
	// need byte-accurate backpressure.
	var r io.Reader = c.nc
	if s.readBuffer >= 0 {
		size := s.readBuffer
		if size == 0 {
			size = batchio.ReadBufferSize
		}
		r = bufio.NewReaderSize(c.nc, size)
	}
	var scratch []byte
	var m wire.Msg
	var rstart time.Time
	for {
		body, err := wire.ReadFrame(r, &scratch)
		if err != nil {
			return // EOF, peer reset, or framing error: drop the connection
		}
		if s.tracer != nil {
			// Dispatch spans start when the frame is fully read; taken
			// before sampling decides, so a sampled request's first span
			// covers its own decode + validation.
			rstart = time.Now()
		}
		if err := m.Decode(body); err != nil {
			// Framing is intact, the body is not. Tell the client and
			// keep serving the connection.
			s.replyError(c, m.ReqID, "bad request: "+err.Error())
			continue
		}
		switch m.Type {
		case wire.TStats:
			s.reqStats.Inc()
			s.replyStats(c, m.ReqID)
		case wire.TMembers:
			s.replyMembers(c, m.ReqID)
		case wire.TInsert, wire.TLookup, wire.TDelete:
			if !s.dispatchKeyed(c, m.Type, &m, false, rstart) {
				return
			}
		case wire.TRoute:
			// A cluster-smart client computed the owner itself and sent the
			// request here directly. The fingerprint decides staleness:
			// a mismatched view gets TWrongView (refresh and retry), a
			// matched-view misroute gets TError (the client's owner math is
			// broken, not stale). Either way the request NEVER forwards —
			// route-direct means exactly one hop.
			switch {
			case s.clusterHash == 0:
				s.replyError(c, m.ReqID, "not a cluster node: direct routing unavailable")
			case m.Cluster != s.clusterHash:
				s.wrongview.Inc()
				var tr uint64
				if m.Traced && s.tracer != nil {
					// A zero-duration span marks which node bounced the
					// stale view, so the retry's trace shows the detour.
					tr = m.Trace
					s.tracer.Record(tr, trace.KindWrongView, rstart, 0, s.clusterHash)
				}
				s.send(c, &wire.Msg{Type: wire.TWrongView, ReqID: m.ReqID, Cluster: s.clusterHash}, tr)
			case m.RouteKind != wire.TInsert && m.RouteKind != wire.TLookup && m.RouteKind != wire.TDelete:
				s.replyError(c, m.ReqID, "unexpected route kind "+m.RouteKind.String())
			case s.owns != nil && !s.owns(m.Key):
				s.replyError(c, m.ReqID, fmt.Sprintf("not the owner of %v", m.Key))
			default:
				s.routed.Inc()
				if !s.dispatchKeyed(c, m.RouteKind, &m, true, rstart) {
					return
				}
			}
		default:
			s.replyError(c, m.ReqID, "unexpected message type "+m.Type.String())
		}
	}
}

// dispatchKeyed validates one keyed request and hands it to its shard
// queue or the forwarder. typ is the operation (TInsert/TLookup/TDelete)
// — for routed requests it comes from the TRoute envelope's RouteKind.
// Routed requests skip the forward branch: their owner check already
// ran in the caller, so route-direct traffic executes locally or not at
// all. rstart is when the frame finished reading (zero without a
// tracer); direct requests are sampled here, routed ones inherit the
// trailer's trace ID. It reports false when the server shut down
// mid-enqueue.
func (s *Server) dispatchKeyed(c *conn, typ wire.Type, m *wire.Msg, routed bool, rstart time.Time) bool {
	if typ == wire.TInsert && len(m.Value) > wire.MaxValue {
		// The limit is the forwardable maximum, enforced uniformly so an
		// insert never succeeds on the owning node but fails through any
		// other.
		s.replyError(c, m.ReqID, fmt.Sprintf("value %d bytes exceeds the %d-byte limit", len(m.Value), wire.MaxValue))
		return true
	}
	origin := m.Origin
	if origin == wire.OriginAuto {
		origin = uint32(s.pool.AutoOrigin(m.Key))
	} else if n := s.pool.Overlay().N(); origin >= uint32(n) {
		s.replyError(c, m.ReqID, fmt.Sprintf("origin %d out of range (overlay has %d nodes)", origin, n))
		return true
	}
	switch typ {
	case wire.TInsert:
		s.reqInsert.Inc()
	case wire.TLookup:
		s.reqLookup.Inc()
	case wire.TDelete:
		s.reqDelete.Inc()
	}
	var tr uint64
	if s.tracer != nil {
		if routed {
			// Trace decisions propagate: a routed request is traced iff
			// the sender sampled it, so its spans join the sender's.
			if m.Traced {
				tr = m.Trace
			}
		} else {
			tr = s.tracer.Sample()
		}
	}
	if s.owns != nil && !routed && !s.owns(m.Key) {
		// Another cluster node owns this key: relay the request and
		// deliver the owner's reply under this reqID. The forwarder may
		// block (its in-flight cap), which reads as backpressure exactly
		// like a full shard queue.
		var value []byte
		if typ == wire.TInsert {
			value = append([]byte(nil), m.Value...)
		}
		s.forwarded.Inc()
		c.inflight.Add(1)
		reqID := m.ReqID
		var once sync.Once
		s.forward(typ, m.Key, origin, value, tr, func(resp *wire.Msg) {
			once.Do(func() {
				if tr != 0 {
					// The forward span covers read-done → owner's reply in
					// hand; the owner's own spans nest inside it.
					s.tracer.Record(tr, trace.KindForward, rstart, time.Since(rstart), uint64(typ))
				}
				resp.ReqID = reqID
				s.send(c, resp, tr)
				c.inflight.Done()
			})
		})
		return true
	}
	t := task{c: c, typ: typ, reqID: m.ReqID, key: m.Key, origin: origin, trace: tr}
	if s.metered || tr != 0 || s.slowNanos > 0 {
		t.enq = time.Now()
	}
	if tr != 0 {
		s.tracer.Record(tr, trace.KindDispatch, rstart, t.enq.Sub(rstart), uint64(typ))
	}
	if typ == wire.TInsert {
		t.value = append([]byte(nil), m.Value...)
	}
	if s.replicate != nil && (typ == wire.TInsert || typ == wire.TDelete) {
		t.repl = &replJoin{s: s, c: c, typ: typ, reqID: m.ReqID, trace: tr}
	}
	c.inflight.Add(1)
	if t.repl != nil {
		// Start the replica fan-out before the task even queues so the
		// peer round trips overlap the local shard execution; the ack
		// goes out when both the local commit and the quorum have landed
		// (replJoin). The value is shared with the task — both sides only
		// read it.
		s.replicate(typ, m.Key, origin, t.value, tr, t.repl.quorum)
	}
	select {
	case s.queues[s.pool.ShardOf(m.Key)] <- t: // may block: backpressure
	case <-s.done:
		c.inflight.Done()
		return false
	}
	return true
}

// replyMembers answers a TMembers request with the membership
// fingerprint and the client-serving address table, or an error when
// this server is not part of a cluster.
func (s *Server) replyMembers(c *conn, reqID uint64) {
	if s.members == nil {
		s.replyError(c, reqID, "not a cluster node: no member table")
		return
	}
	m := wire.Msg{Type: wire.TMembersOK, ReqID: reqID, Cluster: s.clusterHash, Replication: s.replication, Members: s.members()}
	s.send(c, &m, 0)
}

// shardWorker executes tasks for shard i in arrival order, a batch at a
// time: one blocking receive, then a greedy non-blocking drain of
// whatever else is queued, executed as a single Pool.ExecBatch. Batch
// order is arrival order, so per-shard FIFO semantics (and with them
// determinism and read-your-writes across a pipelined connection) are
// exactly those of the one-at-a-time loop.
func (s *Server) shardWorker(i int) {
	defer s.workerWg.Done()
	q := s.queues[i]
	tasks := make([]task, 0, s.maxBatch)
	ops := make([]discovery.BatchOp, 0, s.maxBatch)
	for {
		ok, closed := collectBatch(q, &tasks, s.maxBatch)
		if !ok {
			return
		}
		s.execBatch(tasks, &ops)
		if closed {
			return
		}
	}
}

// collectBatch blocks for one task on q, then greedily drains more
// without blocking, up to max tasks total, appending into *tasks (which
// is truncated first and reused — the loop allocates nothing once the
// slice is warm). It reports whether a batch was collected (ok is false
// when q is closed and empty — note a closed channel still yields its
// buffered tasks first) and whether the drain observed the close.
func collectBatch(q <-chan task, tasks *[]task, max int) (ok, closed bool) {
	t, open := <-q
	if !open {
		return false, true
	}
	*tasks = append((*tasks)[:0], t)
	for len(*tasks) < max {
		select {
		case t, open := <-q:
			if !open {
				return true, true
			}
			*tasks = append(*tasks, t)
		default:
			return true, false
		}
	}
	return true, false
}

// execBatch runs one drained task batch through the pool and answers
// every task. Responses are sent only after ExecBatch returns, i.e.
// after the batch's shared write-ahead sync on durable pools: an acked
// mutation is durable, batched or not.
func (s *Server) execBatch(tasks []task, ops *[]discovery.BatchOp) {
	// One timestamp pair meters the whole batch: queue wait is measured
	// from each task's enqueue to the batch's execution start, and the
	// batch's service span is attributed evenly across its tasks — two
	// time.Now() calls per batch, not per request.
	traced := false
	for k := range tasks {
		if tasks[k].trace != 0 {
			traced = true
			break
		}
	}
	var started time.Time
	if s.metered || traced || s.slowNanos > 0 {
		started = time.Now()
	}
	if s.metered {
		s.batchTasks.Observe(int64(len(tasks)))
		for k := range tasks {
			s.queueWait.Observe(int64(started.Sub(tasks[k].enq)))
		}
	}
	*ops = (*ops)[:0]
	for k := range tasks {
		t := &tasks[k]
		op := discovery.BatchOp{Origin: int(t.origin), Key: t.key, Value: t.value}
		switch t.typ {
		case wire.TInsert:
			op.Kind = discovery.BatchInsert
		case wire.TLookup:
			op.Kind = discovery.BatchLookup
		case wire.TDelete:
			op.Kind = discovery.BatchDelete
		}
		*ops = append(*ops, op)
	}
	// The pool merges this batch with whatever else is in flight on the
	// shard (replica applies, other submitters), so the write-ahead time
	// belongs to merged mutations, not to this batch's tasks alone.
	walNanos, merged := s.pool.ExecBatchTimed(*ops)
	var share, walShare int64
	if merged > 0 {
		walShare = walNanos / int64(merged)
	}
	if s.metered || traced || s.slowNanos > 0 {
		share = int64(time.Since(started)) / int64(len(tasks))
	}
	if s.metered {
		for k := range tasks {
			switch tasks[k].typ {
			case wire.TInsert:
				s.svcInsert.Observe(share)
			case wire.TLookup:
				s.svcLookup.Observe(share)
			case wire.TDelete:
				s.svcDelete.Observe(share)
			}
		}
	}
	if traced {
		// Batch time is attributed evenly: each traced task gets the WAL
		// append+fsync share (of the merged batch, whose mutation count is
		// the span's argument) and the remaining execution share as two
		// adjacent spans, so a trace shows where the batch spent its time
		// even though the work was amortized.
		execShare := share - walShare
		if execShare < 0 {
			execShare = 0
		}
		startNanos := started.UnixNano()
		for k := range tasks {
			t := &tasks[k]
			if t.trace == 0 {
				continue
			}
			s.tracer.RecordNanos(t.trace, trace.KindQueueWait, t.enq.UnixNano(), startNanos-t.enq.UnixNano(), uint64(len(tasks)))
			if walShare > 0 {
				s.tracer.RecordNanos(t.trace, trace.KindWALCommit, startNanos, walShare, uint64(merged))
			}
			s.tracer.RecordNanos(t.trace, trace.KindShardExec, startNanos+walShare, execShare, uint64(len(tasks)))
		}
	}
	var nowNanos int64
	if s.slowNanos > 0 {
		nowNanos = time.Now().UnixNano()
	}
	for k := range tasks {
		t := &tasks[k]
		op := &(*ops)[k]
		var m wire.Msg
		m.ReqID = t.reqID
		switch {
		case op.Err != nil:
			// Durability (or ownership) failed: the operation did not
			// execute and must not be acked. The client sees the error;
			// the daemon keeps serving (reads still work).
			s.logf("server: %v: %v", t.typ, op.Err)
			m.Type = wire.TError
			m.Value = []byte("storage: " + op.Err.Error())
		case t.typ == wire.TInsert:
			m.Type = wire.TInsertOK
			m.Insert = wire.InsertReplyFrom(op.Insert)
		case t.typ == wire.TLookup:
			m.Type = wire.TLookupOK
			m.Lookup = wire.LookupReplyFrom(op.Lookup)
		case t.typ == wire.TDelete:
			m.Type = wire.TDeleteOK
			m.Deleted = uint32(op.Removed)
		}
		if s.slowNanos > 0 {
			if total := nowNanos - t.enq.UnixNano(); total > s.slowNanos {
				s.slowLogf("server: slow %v: total=%s queue=%s exec=%s wal=%s batch=%d merged=%d trace=%016x",
					t.typ, time.Duration(total), started.Sub(t.enq),
					time.Duration(share), time.Duration(walShare),
					len(tasks), merged, t.trace)
			}
		}
		if t.repl != nil {
			// The ack also waits for the replica quorum: whichever of the
			// two lands second sends it, so a slow peer parks nothing —
			// not the shard worker, not a goroutine.
			t.repl.local(&m, op.Err != nil)
			continue
		}
		s.send(t.c, &m, t.trace)
		t.c.inflight.Done()
	}
}

// replyStats answers a stats request inline with a pool snapshot.
func (s *Server) replyStats(c *conn, reqID uint64) {
	st := s.pool.Stats()
	m := wire.Msg{Type: wire.TStatsOK, ReqID: reqID}
	m.Stats = wire.StatsReply{
		Shards:        uint32(st.Shards),
		Inserts:       st.Inserts,
		Lookups:       st.Lookups,
		Deletes:       st.Deletes,
		Found:         st.LookupsFound,
		ShardRequests: make([]uint64, len(st.PerShard)),
	}
	for i, ss := range st.PerShard {
		m.Stats.ShardRequests[i] = ss.Requests
	}
	s.send(c, &m, 0)
}

// replyError sends a TError frame carrying text.
func (s *Server) replyError(c *conn, reqID uint64, text string) {
	m := wire.Msg{Type: wire.TError, ReqID: reqID, Value: []byte(text)}
	s.send(c, &m, 0)
}

// send encodes m and offers it to the connection's writer. tr is the
// originating request's trace ID (0 = untraced).
func (s *Server) send(c *conn, m *wire.Msg, tr uint64) {
	s.offer(c, s.encode(m, tr))
}

// encode frames m into a pooled buffer. A traced frame is timestamped so
// the writer can record its enqueue→flush span.
func (s *Server) encode(m *wire.Msg, tr uint64) outFrame {
	bp := s.bufs.Get().(*[]byte)
	frame, err := m.Append((*bp)[:0])
	if err != nil {
		// Response construction bugs must not kill the worker; log and
		// substitute an error frame.
		s.logf("server: encode %v response: %v", m.Type, err)
		frame, _ = (&wire.Msg{Type: wire.TError, ReqID: m.ReqID, Value: []byte("internal encode error")}).Append((*bp)[:0])
	}
	*bp = frame
	f := outFrame{bp: bp, trace: tr}
	if tr != 0 {
		f.enq = time.Now().UnixNano()
	}
	return f
}

// offer hands f to the connection's writer, waiting for queue room, and
// drops it if the writer is gone.
func (s *Server) offer(c *conn, f outFrame) {
	select {
	case c.out <- f:
	case <-c.dead:
		s.bufs.Put(f.bp)
	}
}

// writeLoop writes encoded frames to the socket until the out channel
// closes, then closes the socket. Frames are coalesced: the loop blocks
// for one response, drains whatever else the workers have queued (up to
// the coalesce budgets), and issues the run as one vectored write — a
// pipelining client costs about one writev(2) per batch. Each batch
// carries a write deadline: a peer that stops reading is treated as
// gone, its socket is closed at once (which also unblocks this
// connection's reader), and the loop keeps draining so producers never
// block on a dead connection.
func (s *Server) writeLoop(c *conn) {
	defer s.connWg.Done()
	defer s.ln.Forget(c.nc)
	defer c.nc.Close()
	defer c.kill()
	var onFlushed func([]outFrame)
	if s.tracer != nil {
		onFlushed = func(batch []outFrame) {
			// One clock read per flushed batch, taken lazily so batches
			// with no traced frames cost nothing extra.
			var now int64
			for _, f := range batch {
				if f.trace == 0 {
					continue
				}
				if now == 0 {
					now = time.Now().UnixNano()
				}
				s.tracer.RecordNanos(f.trace, trace.KindRespFlush, f.enq, now-f.enq, uint64(len(batch)))
			}
		}
	}
	batchio.WriteLoopFunc(c.nc, c.out, nil, s.writeTimeout,
		func(f outFrame) []byte { return *f.bp },
		func(f outFrame) { s.bufs.Put(f.bp) },
		func(err error) {
			s.shed.Inc()
			s.logf("server: write to %v: %v", c.nc.RemoteAddr(), err)
			c.kill()
			c.nc.Close()
		}, onFlushed, &s.wstats)
}
