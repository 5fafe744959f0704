package p2p

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"discovery/internal/batchio"
	"discovery/internal/metrics"
	"discovery/internal/trace"
	"discovery/internal/wire"
)

// Transport is the outbound half of the peer protocol: one lazily-dialed,
// automatically-redialed TCP connection per peer, multiplexing concurrent
// requests by reqID. A call completes through a callback (Go), invoked
// by the connection's reader when the reply lands; Call wraps that in a
// wait for callers that want the reply in hand. Either way calls
// pipeline freely over the shared connection.
//
// Outbound writes are coalesced, mirroring the inbound response writers:
// a Call encodes its frame into a pooled buffer and queues it on the
// peer's out-queue, and the connection's writer goroutine drains the
// queue into vectored writes (net.Buffers) bounded by the batchio
// budgets. Concurrent callers therefore cost about one write(2) per
// batch instead of one per call, while reqID multiplexing and per-call
// timeouts are untouched.
type Transport struct {
	cluster       *Cluster
	overlay       *RemoteOverlay
	dialTimeout   time.Duration
	callTimeout   time.Duration
	redialBackoff time.Duration
	logf          func(format string, args ...any)
	peers         []*peerConn

	mu      sync.Mutex
	closed  bool
	probing bool

	// addrMu guards the client-address advertisement plumbing: the
	// address this node tells peers about, and the callback invoked with
	// addresses peers tell us about.
	addrMu         sync.Mutex
	selfClientAddr string
	peerAddrFn     func(i int, addr string)

	// proberQuit stops the transport's background goroutines — the health
	// prober and the call-timeout sweeper — and proberWg waits for them.
	proberQuit chan struct{}
	proberWg   sync.WaitGroup

	// Instrumentation, registry-backed so a process-wide /metrics scrape
	// and WriteStats read the same atomics. writes counts vectored
	// write(2) calls, framesOut the frames they carried — frames/writes
	// is the coalescing ratio, with p2p.frames_per_write holding its
	// distribution. calls/callErrors/callNanos meter Call round trips,
	// dials/redials the connection churn.
	writes         *metrics.Counter
	framesOut      *metrics.Counter
	framesPerWrite *metrics.Histogram
	calls          *metrics.Counter
	callErrors     *metrics.Counter
	callNanos      *metrics.Histogram
	dials          *metrics.Counter
	redials        *metrics.Counter

	// tracer records the outbound hop span of traced calls (set by
	// NewNode from Config.Tracer; nil disables — Record is nil-safe).
	tracer *trace.Tracer

	bufs sync.Pool // *[]byte outbound frame buffers
}

// errTransportClosed fails calls after Close.
var errTransportClosed = errors.New("p2p: transport closed")

// peerReadBuffer sizes the buffered reader on peer response connections,
// so a burst of pipelined responses decodes several frames per read(2).
const peerReadBuffer = 32 << 10

// Transport retry/timeout defaults, shared with the cmd flag layer so
// flag help and behavior can never drift apart.
const (
	// DefaultDialTimeout bounds one TCP connect to a peer.
	DefaultDialTimeout = 500 * time.Millisecond
	// DefaultCallTimeout bounds one peer request round trip.
	DefaultCallTimeout = 5 * time.Second
	// DefaultRedialBackoff is how long after a SLOW dial failure (a
	// timeout — e.g. a blackholed peer) further calls fail fast instead
	// of queueing up behind serial dial attempts, each burning its own
	// dial timeout. Fast failures (connection refused, as on a
	// crashed-but-routable peer) never arm the backoff: retrying them is
	// nearly free, and a peer that just restarted must be reachable
	// immediately.
	DefaultRedialBackoff = 250 * time.Millisecond
)

// TransportConfig parameterizes NewTransport. The zero value selects
// every default.
type TransportConfig struct {
	// DialTimeout bounds one TCP connect (default DefaultDialTimeout).
	DialTimeout time.Duration
	// CallTimeout bounds one request round trip (default DefaultCallTimeout).
	CallTimeout time.Duration
	// RedialBackoff is the fail-fast window armed by a slow dial failure
	// (default DefaultRedialBackoff).
	RedialBackoff time.Duration
	// DialVia rewrites dial targets: when a peer's cluster address has
	// an entry, the transport connects to the mapped address instead
	// while all protocol-level identity (fingerprints, member slots)
	// stays on the real address. This is the hook fault-injection
	// proxies (internal/faultnet) and NAT-style indirection plug into.
	DialVia map[string]string
	// Logf receives connection-level error lines (nil = silent).
	Logf func(format string, args ...any)
	// Metrics receives the transport's p2p.* instrumentation; nil
	// selects a private registry, so WriteStats works either way.
	Metrics *metrics.Registry
}

// NewTransport builds the peer-connection table.
func NewTransport(c *Cluster, ov *RemoteOverlay, cfg TransportConfig) *Transport {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = DefaultDialTimeout
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = DefaultCallTimeout
	}
	if cfg.RedialBackoff <= 0 {
		cfg.RedialBackoff = DefaultRedialBackoff
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	t := &Transport{
		cluster:        c,
		overlay:        ov,
		dialTimeout:    cfg.DialTimeout,
		callTimeout:    cfg.CallTimeout,
		redialBackoff:  cfg.RedialBackoff,
		logf:           logf,
		peers:          make([]*peerConn, c.N()),
		proberQuit:     make(chan struct{}),
		writes:         reg.Counter("p2p.writes"),
		framesOut:      reg.Counter("p2p.frames"),
		framesPerWrite: reg.Histogram("p2p.frames_per_write", 1),
		calls:          reg.Counter("p2p.calls"),
		callErrors:     reg.Counter("p2p.call_errors"),
		callNanos:      reg.Histogram("p2p.call_seconds", 1e-9),
		dials:          reg.Counter("p2p.dials"),
		redials:        reg.Counter("p2p.redials"),
	}
	t.bufs.New = func() any {
		b := make([]byte, 0, 512)
		return &b
	}
	for i := range t.peers {
		addr := c.Addr(i)
		dialAddr := addr
		if via, ok := cfg.DialVia[addr]; ok && via != "" {
			dialAddr = via
		}
		t.peers[i] = &peerConn{t: t, idx: i, addr: addr, dialAddr: dialAddr, pending: make(map[uint64]*call)}
	}
	t.proberWg.Add(1)
	go t.sweep()
	return t
}

// SetClientAddr sets the client-serving address probes advertise to
// peers (empty = not advertised). Safe to call at any time; the next
// probe carries it.
func (t *Transport) SetClientAddr(addr string) {
	t.addrMu.Lock()
	t.selfClientAddr = addr
	t.addrMu.Unlock()
}

// OnPeerClientAddr registers fn to receive the client-serving addresses
// peers advertise in probe responses. fn must be safe for concurrent
// calls.
func (t *Transport) OnPeerClientAddr(fn func(i int, addr string)) {
	t.addrMu.Lock()
	t.peerAddrFn = fn
	t.addrMu.Unlock()
}

// WriteStats returns the cumulative outbound syscall counters: vectored
// writes issued and frames they carried. frames >= writes always;
// frames > writes means pipelined calls shared write(2) invocations.
// The counters live in the transport's metrics registry (p2p.writes /
// p2p.frames), so this is the same data a /metrics scrape sees; reads
// are atomic and safe under concurrent traffic.
func (t *Transport) WriteStats() (writes, frames uint64) {
	return t.writes.Value(), t.framesOut.Value()
}

// connState is one live connection: the socket, its out-queue, and the
// death signal that tells producers to stop offering frames. A peerConn
// replaces its connState wholesale on reconnect, so the writer and
// reader goroutines of a dead connection never touch the new one.
type connState struct {
	nc   net.Conn
	out  chan *[]byte  // encoded request frames (pooled)
	dead chan struct{} // closed when the connection is torn down
	once sync.Once
}

// kill marks the connection dead so producers stop offering frames.
func (cs *connState) kill() { cs.once.Do(func() { close(cs.dead) }) }

// peerConn is the connection state for one peer. cur is nil when
// disconnected; the next call redials.
//
// Two locks with distinct jobs: wmu serializes the slow path (dialing)
// among callers, while mu guards only the cheap shared state (cur, the
// pending map, the reqID counter). The socket itself is written by the
// connection's writer goroutine alone, so no caller ever blocks on a
// peer's socket — it blocks, at worst, on the out-queue (backpressure).
type peerConn struct {
	t        *Transport
	idx      int
	addr     string // the peer's cluster (protocol-identity) address
	dialAddr string // where to actually connect (DialVia indirection)

	wmu sync.Mutex // dial serialization

	mu            sync.Mutex
	cur           *connState
	nextID        uint64
	pending       map[uint64]*call
	lastFail      time.Time // last failed dial, for redialBackoff
	everConnected bool      // a later dial is a redial, not a first dial
}

// call is one request awaiting its reply.
type call struct {
	peer     int
	trace    uint64 // the request's trace ID; 0 = untraced
	start    time.Time
	deadline time.Time
	done     func(*wire.Msg, error)
}

// finish completes c exactly once — its pending entry, if it had one, is
// already gone — recording the hop's span and metrics.
func (t *Transport) finish(c *call, resp *wire.Msg, err error) {
	if c.trace != 0 {
		// The peer_call span covers encode → reply (or failure) for this
		// hop; the responder's own spans nest inside it under the same ID.
		t.tracer.Record(c.trace, trace.KindPeerCall, c.start, time.Since(c.start), uint64(c.peer))
	}
	if err != nil {
		t.callErrors.Inc()
	} else {
		t.callNanos.Observe(int64(time.Since(c.start)))
	}
	c.done(resp, err)
}

// Call sends m to peer i and waits for its response, dialing or redialing
// as needed. m.ReqID is assigned by the transport. The returned message
// is owned by the caller. Transport health (RemoteOverlay.Alive) is
// updated as a side effect.
func (t *Transport) Call(i int, m *wire.Msg) (*wire.Msg, error) {
	type result struct {
		resp *wire.Msg
		err  error
	}
	ch := make(chan result, 1)
	t.Go(i, m, func(resp *wire.Msg, err error) { ch <- result{resp, err} })
	r := <-ch
	return r.resp, r.err
}

// Go is Call without the wait: it sends m to peer i and returns, and done
// is invoked exactly once with the reply or the failure. With the
// connection up and room in its out-queue — the steady state — the frame
// is queued on the caller's goroutine and done runs on the connection's
// reader; a call that must first dial, or wait for queue room, does so on
// a goroutine of its own, so Go never blocks on a slow or dead peer. done
// must not block either: it may run on that reader (every other reply
// from the peer waits behind it), on the timeout sweeper, on whoever tore
// the connection down, or on the calling goroutine before Go returns.
func (t *Transport) Go(i int, m *wire.Msg, done func(*wire.Msg, error)) {
	t.calls.Inc()
	c := &call{peer: i, start: time.Now(), done: done}
	c.deadline = c.start.Add(t.callTimeout)
	if m.Traced {
		c.trace = m.Trace
	}
	if i == t.cluster.Self() {
		t.finish(c, nil, fmt.Errorf("p2p: call to self (index %d)", i))
		return
	}
	pc := t.peers[i]
	pc.mu.Lock()
	cs := pc.cur
	pc.mu.Unlock()
	if cs != nil {
		if queued, err := pc.post(cs, m, c, false); queued {
			return
		} else if err != nil {
			t.finish(c, nil, err)
			return
		}
	}
	go func() {
		cs, err := pc.conn()
		if err != nil {
			t.overlay.SetAlive(i, false)
			t.finish(c, nil, err)
			return
		}
		if _, err := pc.post(cs, m, c, true); err != nil {
			t.finish(c, nil, err)
		}
	}()
}

// post registers c as pending and queues m's frame on cs. With block it
// waits for room in the out-queue (backpressure); without, a full queue
// reports (false, nil) with c no longer registered. An error means the
// call will not be sent and is the caller's to finish: the frame did not
// encode, or the connection died first.
func (pc *peerConn) post(cs *connState, m *wire.Msg, c *call, block bool) (queued bool, err error) {
	t := pc.t
	pc.mu.Lock()
	pc.nextID++
	id := pc.nextID
	pc.pending[id] = c
	pc.mu.Unlock()
	m.ReqID = id
	bp := t.bufs.Get().(*[]byte)
	frame, err := m.Append((*bp)[:0])
	full := false
	if err == nil {
		*bp = frame
		if block {
			select {
			case cs.out <- bp:
				return true, nil
			case <-cs.dead:
			}
		} else {
			select {
			case cs.out <- bp:
				return true, nil
			case <-cs.dead:
			default:
				full = true
			}
		}
	}
	t.bufs.Put(bp)
	pc.mu.Lock()
	_, mine := pc.pending[id]
	delete(pc.pending, id)
	pc.mu.Unlock()
	switch {
	case !mine:
		// A teardown racing this send failed every pending call, this one
		// included: whoever removes the entry finishes the call.
		return true, nil
	case err != nil || full:
		return false, err
	}
	t.overlay.SetAlive(pc.idx, false)
	return false, fmt.Errorf("p2p: %s: connection lost before send", pc.addr)
}

// sweep fails every call whose reply is overdue, until Close. One
// sweeper per transport, ticking at a quarter of the call timeout, stands
// in for a timer per call: a lost reply is reported between one and one
// and a quarter timeouts after the send.
func (t *Transport) sweep() {
	defer t.proberWg.Done()
	ticker := time.NewTicker(t.callTimeout / 4)
	defer ticker.Stop()
	var overdue []*call
	for {
		select {
		case <-t.proberQuit:
			return
		case now := <-ticker.C:
			for _, pc := range t.peers {
				overdue = overdue[:0]
				pc.mu.Lock()
				for id, c := range pc.pending {
					if now.After(c.deadline) {
						delete(pc.pending, id)
						overdue = append(overdue, c)
					}
				}
				pc.mu.Unlock()
				for _, c := range overdue {
					t.overlay.SetAlive(pc.idx, false)
					t.finish(c, nil, fmt.Errorf("p2p: %s: no reply within %s", pc.addr, t.callTimeout))
				}
			}
		}
	}
}

// conn returns the live connection state, dialing if needed. wmu is held
// across the dial so at most one dial is in flight per peer; pc.mu is
// taken only around shared-state reads and writes. A dial that fails
// arms a short backoff so bursts of calls to a dead peer fail fast
// instead of each burning a dial timeout in turn.
func (pc *peerConn) conn() (*connState, error) {
	t := pc.t
	pc.wmu.Lock()
	defer pc.wmu.Unlock()
	pc.mu.Lock()
	cs := pc.cur
	backoff := !pc.lastFail.IsZero() && time.Since(pc.lastFail) < t.redialBackoff
	pc.mu.Unlock()
	if cs != nil {
		return cs, nil
	}
	t.mu.Lock()
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return nil, errTransportClosed
	}
	if backoff {
		return nil, fmt.Errorf("p2p: %s: unreachable (in redial backoff)", pc.addr)
	}
	dialStart := time.Now()
	nc, err := net.DialTimeout("tcp", pc.dialAddr, t.dialTimeout)
	if err != nil {
		if time.Since(dialStart) >= t.dialTimeout/2 {
			pc.mu.Lock()
			pc.lastFail = time.Now()
			pc.mu.Unlock()
		}
		if pc.dialAddr != pc.addr {
			return nil, fmt.Errorf("p2p: dial %s (via %s): %w", pc.addr, pc.dialAddr, err)
		}
		return nil, fmt.Errorf("p2p: dial %s: %w", pc.addr, err)
	}
	cs = &connState{nc: nc, out: make(chan *[]byte, 64), dead: make(chan struct{})}
	pc.mu.Lock()
	// Re-check closed under pc.mu: Close tears peers down under this
	// lock, so either we see closed here, or Close runs after us and
	// severs the connection we just installed.
	t.mu.Lock()
	closed = t.closed
	t.mu.Unlock()
	if closed {
		pc.mu.Unlock()
		nc.Close()
		return nil, errTransportClosed
	}
	pc.cur = cs
	pc.lastFail = time.Time{}
	redial := pc.everConnected
	pc.everConnected = true
	pc.mu.Unlock()
	t.dials.Inc()
	if redial {
		t.redials.Inc()
	}
	go pc.readLoop(cs)
	go pc.writeLoop(cs)
	return cs, nil
}

// collectOut gathers one coalesced write batch from cs: it blocks until
// a first frame arrives (or the connection dies), then drains
// already-queued frames without blocking, bounded by the batchio
// budgets. Frame pointers land in *slots, byte slices in *bufs — both
// caller-owned and reused, so the steady-state drain allocates nothing.
// It reports false when the connection died with nothing collected; a
// death that lands mid-drain still returns the partial batch.
func collectOut(cs *connState, slots *[]*[]byte, bufs *net.Buffers) bool {
	var first *[]byte
	select {
	case first = <-cs.out:
	case <-cs.dead:
		// One more non-blocking look: a producer that won the race may
		// have queued a frame the instant before death.
		select {
		case first = <-cs.out:
		default:
			return false
		}
	}
	*slots = append(*slots, first)
	*bufs = append(*bufs, *first)
	total := len(*first)
	for len(*slots) < batchio.DefaultMaxFrames && total < batchio.DefaultMaxBytes {
		select {
		case bp := <-cs.out:
			*slots = append(*slots, bp)
			*bufs = append(*bufs, *bp)
			total += len(*bp)
		default:
			return true
		}
	}
	return true
}

// writeLoop drains the connection's out-queue into vectored writes until
// the connection dies. Each batch carries a write deadline; the first
// failed or timed-out write tears the connection down, and the loop
// keeps draining (recycling buffers) so producers never block on a dead
// peer.
func (pc *peerConn) writeLoop(cs *connState) {
	t := pc.t
	slots := make([]*[]byte, 0, batchio.DefaultMaxFrames)
	backing := make(net.Buffers, 0, batchio.DefaultMaxFrames)
	broken := false
	for {
		slots = slots[:0]
		bufs := backing[:0]
		if !collectOut(cs, &slots, &bufs) {
			return
		}
		// WriteTo consumes the bufs header as it flushes; keep the grown
		// backing array so the next batch reuses its capacity.
		backing = bufs
		if !broken {
			n := len(slots)
			cs.nc.SetWriteDeadline(time.Now().Add(t.callTimeout)) //nolint:errcheck // surfaced by WriteTo
			if _, err := bufs.WriteTo(cs.nc); err != nil {
				broken = true
				t.logf("p2p: write to %s: %v", pc.addr, err)
				pc.teardown(cs)
			} else {
				t.writes.Inc()
				t.framesOut.Add(uint64(n))
				t.framesPerWrite.Observe(int64(n))
			}
		}
		for _, bp := range slots {
			t.bufs.Put(bp)
		}
	}
}

// readLoop decodes responses off one connection and completes the
// pending calls they answer, by reqID, on this goroutine. The socket is
// wrapped in a sized buffered reader, so a pipelined burst of responses
// decodes several frames per read(2). Each response gets a fresh Msg: it
// is owned by the call it completes.
func (pc *peerConn) readLoop(cs *connState) {
	br := bufio.NewReaderSize(cs.nc, peerReadBuffer)
	var scratch []byte
	for {
		body, err := wire.ReadFrame(br, &scratch)
		if err != nil {
			break
		}
		m := new(wire.Msg)
		if err := m.Decode(body); err != nil {
			pc.t.logf("p2p: %s: bad response frame: %v", pc.addr, err)
			break
		}
		pc.mu.Lock()
		c := pc.pending[m.ReqID]
		delete(pc.pending, m.ReqID)
		pc.mu.Unlock()
		if c != nil {
			pc.t.overlay.SetAlive(pc.idx, true)
			pc.t.finish(c, m, nil)
		}
	}
	pc.teardown(cs)
}

// teardown severs cs: the socket closes, producers are told to stop
// (dead), and — if cs is still the peer's current connection — every
// pending call fails and the peer is marked dead. A stale connState
// (already replaced by a redial) only cleans up after itself.
func (pc *peerConn) teardown(cs *connState) {
	cs.kill()
	cs.nc.Close()
	var lost []*call
	pc.mu.Lock()
	if pc.cur == cs {
		pc.cur = nil
		for id, c := range pc.pending {
			delete(pc.pending, id)
			lost = append(lost, c)
		}
		pc.t.overlay.SetAlive(pc.idx, false)
	}
	pc.mu.Unlock()
	for _, c := range lost {
		pc.t.finish(c, nil, fmt.Errorf("p2p: %s: connection lost awaiting reply", pc.addr))
	}
}

// Probe checks peer i end to end: dial if needed, exchange membership
// fingerprints and client-serving addresses, and return the peer's
// stored replica count. A fingerprint mismatch is an error — the peer is
// serving a different cluster.
func (t *Transport) Probe(i int) (held uint64, err error) {
	t.addrMu.Lock()
	self := t.selfClientAddr
	t.addrMu.Unlock()
	req := &wire.Msg{Type: wire.TPeerProbe, Cluster: t.cluster.Hash(), Origin: uint32(t.cluster.Self()), ClientAddr: []byte(self)}
	resp, err := t.Call(i, req)
	if err != nil {
		return 0, err
	}
	switch resp.Type {
	case wire.TPeerProbeOK:
		if resp.Cluster != t.cluster.Hash() {
			t.overlay.SetAlive(i, false)
			return 0, fmt.Errorf("p2p: %s: cluster membership mismatch (theirs %016x, ours %016x)",
				t.cluster.Addr(i), resp.Cluster, t.cluster.Hash())
		}
		if len(resp.ClientAddr) > 0 {
			t.addrMu.Lock()
			fn := t.peerAddrFn
			t.addrMu.Unlock()
			if fn != nil {
				fn(i, string(resp.ClientAddr))
			}
		}
		return resp.Held, nil
	case wire.TError:
		return 0, fmt.Errorf("p2p: %s: probe refused: %s", t.cluster.Addr(i), resp.ErrorText())
	default:
		return 0, fmt.Errorf("p2p: %s: unexpected probe response %v", t.cluster.Addr(i), resp.Type)
	}
}

// StartProber launches a background health prober: every interval it
// probes each peer, which flips the overlay's Alive flags eagerly — a
// peer's death (or recovery) is noticed within one interval instead of
// on the next forwarded call that happens to hit it. Probe failures are
// already rate-limited by the dial backoff, and a probe that finds a
// mismatched membership fingerprint marks the peer dead exactly like
// Call would. No-op when interval <= 0, after Close, or if a prober is
// already running; Close stops it.
func (t *Transport) StartProber(interval time.Duration) {
	if interval <= 0 {
		return
	}
	t.mu.Lock()
	if t.closed || t.probing {
		t.mu.Unlock()
		return
	}
	t.probing = true
	t.mu.Unlock()
	t.proberWg.Add(1)
	go func() {
		defer t.proberWg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-t.proberQuit:
				return
			case <-ticker.C:
			}
			for i := range t.peers {
				if i == t.cluster.Self() {
					continue
				}
				select {
				case <-t.proberQuit:
					return
				default:
				}
				t.Probe(i) //nolint:errcheck // Alive is updated as a side effect either way
			}
		}
	}()
}

// Close severs every peer connection, stops the health prober, and fails
// in-flight and future calls.
func (t *Transport) Close() {
	t.mu.Lock()
	already := t.closed
	t.closed = true
	t.mu.Unlock()
	if !already {
		close(t.proberQuit)
	}
	t.proberWg.Wait()
	for _, pc := range t.peers {
		pc.mu.Lock()
		cs := pc.cur
		pc.mu.Unlock()
		if cs != nil {
			pc.teardown(cs)
		}
	}
}
