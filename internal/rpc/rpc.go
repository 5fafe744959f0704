// Package rpc holds both halves of every connection in the serving
// stack, each written once.
//
// The calling half (Mux, Conn) is one lazily dialed, single-flight
// redialed TCP connection to one address, multiplexing concurrent
// requests by reqID. The peer transport (internal/p2p) keeps one per peer
// and the cluster-smart client (internal/cluster) one per node; what
// differs between them — who is called, what a failure means, what is
// counted — stays with the owner.
//
// The served half (Listener, ServedConn) is what the client listener
// (internal/server) and the peer listener (internal/p2p) run for every
// connection they accept: the buffered frame reader, the in-flight count
// that orders the drain, the response encoder and the coalescing writer.
// The owner supplies only a per-frame handler.
//
// A call completes through a callback (Conn.Go), invoked exactly once by
// whoever removes the call's entry from the pending map: the connection's
// reader when the reply lands, the owner's timeout sweeper when it does
// not, the teardown of a dead connection, or the caller itself when the
// request cannot be sent. Conn.Call wraps that in a wait. Either way calls
// pipeline freely over the shared connection.
//
// Writes are coalesced the same way on both halves: a frame is encoded
// into a pooled buffer and queued on the connection's out-queue, and the
// connection's writer (batchio.WriteLoop) drains the queue into vectored
// writes. Concurrent callers or responders therefore cost about one
// write(2) per batch instead of one per frame. Frames are read through a
// sized buffered reader, several frames per read(2).
package rpc

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"discovery/internal/batchio"
	"discovery/internal/metrics"
	"discovery/internal/wire"
)

// Retry/timeout defaults, selected by a zero Config field.
const (
	// DefaultDialTimeout bounds one TCP connect.
	DefaultDialTimeout = 500 * time.Millisecond
	// DefaultCallTimeout bounds one request round trip.
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

// Config is what one owner's connections share.
type Config struct {
	// Name prefixes error texts and log lines ("p2p", "cluster").
	Name string
	// DialTimeout bounds one TCP connect, CallTimeout one request round
	// trip (and one vectored write), RedialBackoff is the fail-fast
	// window armed by a slow dial failure. Zero selects the default.
	DialTimeout   time.Duration
	CallTimeout   time.Duration
	RedialBackoff time.Duration
	// Logf receives connection-level error lines (nil = silent).
	Logf func(format string, args ...any)
	// Writes meters the request writers' coalescing (nil = unmetered);
	// Dials counts connections established and Redials those that
	// replaced an earlier one (nil-safe).
	Writes  *batchio.Stats
	Dials   *metrics.Counter
	Redials *metrics.Counter
}

// Mux owns the connections of one owner: their shared configuration and
// the one sweeper that times their calls out.
// Create with New, stop with Close.
type Mux struct {
	cfg       Config
	errClosed error

	mu     sync.Mutex
	conns  map[string]*Conn
	closed bool

	quit chan struct{} // stops the sweeper
	wg   sync.WaitGroup
}

// frame is one encoded frame queued for a connection writer: the pooled
// buffer plus, on the served half, the trace context a flush hook needs.
type frame struct {
	bp    *[]byte
	trace uint64 // trace ID of the originating request; 0 = untraced
	enq   int64  // unix-nano enqueue instant; set only when traced
}

// frames recycles the encode buffers of every connection, both halves.
var frames = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

func frameBytes(f frame) []byte { return *f.bp }

func putFrame(f frame) { frames.Put(f.bp) }

// FrameReader reads length-prefixed frames off a connection through a
// sized buffered reader, so a pipelined burst decodes several frames per
// read(2). It is the frame reader of both halves of every connection,
// and of the listener's plain client (server.Client).
type FrameReader struct {
	r       io.Reader
	scratch []byte
}

// NewFrameReader reads nc through a buffer of size bytes: 0 selects
// batchio.ReadBufferSize, and a negative size reads the raw socket.
func NewFrameReader(nc net.Conn, size int) *FrameReader {
	fr := &FrameReader{r: nc}
	if size >= 0 {
		if size == 0 {
			size = batchio.ReadBufferSize
		}
		fr.r = bufio.NewReaderSize(nc, size)
	}
	return fr
}

// Next returns the next frame's body, valid until the following Next.
func (fr *FrameReader) Next() ([]byte, error) { return wire.ReadFrame(fr.r, &fr.scratch) }

// readFrames hands each frame read off nc (see NewFrameReader for size)
// to handle, until the connection fails or handle returns false. The
// body is valid only until handle returns.
func readFrames(nc net.Conn, size int, handle func(body []byte) bool) {
	fr := NewFrameReader(nc, size)
	for {
		body, err := fr.Next()
		if err != nil || !handle(body) {
			return
		}
	}
}

// New builds a Mux and starts its timeout sweeper.
func New(cfg Config) *Mux {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = DefaultDialTimeout
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = DefaultCallTimeout
	}
	if cfg.RedialBackoff <= 0 {
		cfg.RedialBackoff = DefaultRedialBackoff
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	x := &Mux{
		cfg:       cfg,
		errClosed: fmt.Errorf("%s: connections closed", cfg.Name),
		conns:     make(map[string]*Conn),
		quit:      make(chan struct{}),
	}
	x.wg.Add(1)
	go x.sweep()
	return x
}

// Conn returns the connection to addr, creating it (undialed) on first
// use. addr is the address error texts name; dialAddr is where to
// actually connect, for owners that interpose a proxy. health, when
// non-nil, is told what each call's outcome says about the far end: true
// when a reply lands, false when the connection cannot be made, is lost,
// or a reply is overdue. It must not block. dialAddr and health are fixed
// by the first call for addr.
func (x *Mux) Conn(addr, dialAddr string, health func(up bool)) *Conn {
	x.mu.Lock()
	defer x.mu.Unlock()
	c := x.conns[addr]
	if c == nil {
		if health == nil {
			health = func(bool) {}
		}
		c = &Conn{x: x, addr: addr, dialAddr: dialAddr, health: health, pending: make(map[uint64]call)}
		x.conns[addr] = c
	}
	return c
}

// snapshot appends every connection to into.
func (x *Mux) snapshot(into []*Conn) []*Conn {
	x.mu.Lock()
	for _, c := range x.conns {
		into = append(into, c)
	}
	x.mu.Unlock()
	return into
}

// Pending returns how many calls are awaiting a reply across every
// connection.
func (x *Mux) Pending() int {
	n := 0
	for _, c := range x.snapshot(nil) {
		c.mu.Lock()
		n += len(c.pending)
		c.mu.Unlock()
	}
	return n
}

// Close severs every connection, stops the sweeper, and fails in-flight
// and future calls.
func (x *Mux) Close() {
	x.mu.Lock()
	already := x.closed
	x.closed = true
	x.mu.Unlock()
	if already {
		return
	}
	close(x.quit)
	x.wg.Wait()
	for _, c := range x.snapshot(nil) {
		c.mu.Lock()
		cs := c.cur
		c.mu.Unlock()
		if cs != nil {
			c.teardown(cs)
		}
	}
}

// sweep fails every call whose reply is overdue, until Close. One
// sweeper per Mux, ticking at a quarter of the call timeout, stands in
// for a timer per call: a lost reply is reported between one and one and
// a quarter timeouts after the send.
func (x *Mux) sweep() {
	defer x.wg.Done()
	ticker := time.NewTicker(x.cfg.CallTimeout / 4)
	defer ticker.Stop()
	var conns []*Conn
	var overdue []call
	for {
		select {
		case <-x.quit:
			return
		case now := <-ticker.C:
			conns = x.snapshot(conns[:0])
			for _, c := range conns {
				overdue = overdue[:0]
				c.mu.Lock()
				for id, cl := range c.pending {
					if now.After(cl.deadline) {
						delete(c.pending, id)
						overdue = append(overdue, cl)
					}
				}
				c.mu.Unlock()
				for _, cl := range overdue {
					c.health(false)
					cl.done(nil, fmt.Errorf("%s: %s: no reply within %s", x.cfg.Name, c.addr, x.cfg.CallTimeout))
				}
			}
		}
	}
}

// connState is one live connection: the socket, its out-queue, and the
// death signal that tells producers to stop offering frames. A Conn
// replaces its connState wholesale on reconnect, so the writer and
// reader goroutines of a dead connection never touch the new one.
type connState struct {
	nc   net.Conn
	out  chan frame    // encoded request frames (pooled); sized to one full write batch
	dead chan struct{} // closed when the connection is torn down
	once sync.Once
}

// kill marks the connection dead so producers stop offering frames.
func (cs *connState) kill() { cs.once.Do(func() { close(cs.dead) }) }

// Conn is the connection to one address. cur is nil when disconnected;
// the next call redials.
//
// Two locks with distinct jobs: wmu serializes the slow path (dialing)
// among callers, while mu guards only the cheap shared state (cur, the
// pending map, the reqID counter). The socket itself is written by the
// connection's writer goroutine alone, so no caller ever blocks on the
// far end's socket — it blocks, at worst, on the out-queue (backpressure).
type Conn struct {
	x        *Mux
	addr     string // the far end's protocol-identity address
	dialAddr string // where to actually connect
	health   func(up bool)

	wmu sync.Mutex // dial serialization

	mu            sync.Mutex
	cur           *connState
	nextID        uint64
	pending       map[uint64]call
	lastFail      time.Time // last slow dial failure, for RedialBackoff
	everConnected bool      // a later dial is a redial, not a first dial
}

// call is one request awaiting its reply.
type call struct {
	deadline time.Time
	done     func(*wire.Msg, error)
}

// Call sends m and waits for its response, dialing or redialing as
// needed. m.ReqID is assigned by the connection. The returned message is
// owned by the caller.
func (c *Conn) Call(m *wire.Msg) (*wire.Msg, error) {
	type result struct {
		resp *wire.Msg
		err  error
	}
	ch := make(chan result, 1)
	c.Go(m, func(resp *wire.Msg, err error) { ch <- result{resp, err} })
	r := <-ch
	return r.resp, r.err
}

// Go is Call without the wait: it sends m and returns, and done is
// invoked exactly once with the reply or the failure. With the
// connection up and room in its out-queue — the steady state — the frame
// is queued on the caller's goroutine and done runs on the connection's
// reader; a call that must first dial, or wait for queue room, does so on
// a goroutine of its own, so Go never blocks on a slow or dead far end.
// done must not block either: it may run on that reader (every other
// reply on the connection waits behind it), on the timeout sweeper, on
// whoever tore the connection down, or on the calling goroutine before Go
// returns.
func (c *Conn) Go(m *wire.Msg, done func(*wire.Msg, error)) {
	cl := call{deadline: time.Now().Add(c.x.cfg.CallTimeout), done: done}
	c.mu.Lock()
	cs := c.cur
	c.mu.Unlock()
	if cs != nil {
		if queued, err := c.post(cs, m, cl, false); queued {
			return
		} else if err != nil {
			done(nil, err)
			return
		}
	}
	go func() {
		cs, err := c.conn()
		if err != nil {
			c.health(false)
			done(nil, err)
			return
		}
		if _, err := c.post(cs, m, cl, true); err != nil {
			done(nil, err)
		}
	}()
}

// post registers cl as pending and queues m's frame on cs. With block it
// waits for room in the out-queue (backpressure); without, a full queue
// reports (false, nil) with cl no longer registered. An error means the
// call will not be sent and is the caller's to finish: the frame did not
// encode, or the connection died first.
func (c *Conn) post(cs *connState, m *wire.Msg, cl call, block bool) (queued bool, err error) {
	x := c.x
	c.mu.Lock()
	c.nextID++
	id := c.nextID
	c.pending[id] = cl
	c.mu.Unlock()
	m.ReqID = id
	f := frame{bp: frames.Get().(*[]byte)}
	b, err := m.Append((*f.bp)[:0])
	full := false
	if err == nil {
		*f.bp = b
		if block {
			select {
			case cs.out <- f:
				return true, nil
			case <-cs.dead:
			}
		} else {
			select {
			case cs.out <- f:
				return true, nil
			case <-cs.dead:
			default:
				full = true
			}
		}
	}
	putFrame(f)
	c.mu.Lock()
	_, mine := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	switch {
	case !mine:
		// A teardown racing this send failed every pending call, this one
		// included: whoever removes the entry finishes the call.
		return true, nil
	case err != nil || full:
		return false, err
	}
	c.health(false)
	return false, fmt.Errorf("%s: %s: connection lost before send", x.cfg.Name, c.addr)
}

// conn returns the live connection state, dialing if needed. wmu is held
// across the dial so at most one dial is in flight per address; c.mu is
// taken only around shared-state reads and writes. A dial that fails
// slowly arms a short backoff so bursts of calls to a blackholed address
// fail fast instead of each burning a dial timeout in turn.
func (c *Conn) conn() (*connState, error) {
	x := c.x
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.mu.Lock()
	cs := c.cur
	backoff := !c.lastFail.IsZero() && time.Since(c.lastFail) < x.cfg.RedialBackoff
	c.mu.Unlock()
	if cs != nil {
		return cs, nil
	}
	x.mu.Lock()
	closed := x.closed
	x.mu.Unlock()
	if closed {
		return nil, x.errClosed
	}
	if backoff {
		return nil, fmt.Errorf("%s: %s: unreachable (in redial backoff)", x.cfg.Name, c.addr)
	}
	dialStart := time.Now()
	nc, err := net.DialTimeout("tcp", c.dialAddr, x.cfg.DialTimeout)
	if err != nil {
		if time.Since(dialStart) >= x.cfg.DialTimeout/2 {
			c.mu.Lock()
			c.lastFail = time.Now()
			c.mu.Unlock()
		}
		if c.dialAddr != c.addr {
			return nil, fmt.Errorf("%s: dial %s (via %s): %w", x.cfg.Name, c.addr, c.dialAddr, err)
		}
		return nil, fmt.Errorf("%s: dial %s: %w", x.cfg.Name, c.addr, err)
	}
	cs = &connState{nc: nc, out: make(chan frame, batchio.MaxFrames), dead: make(chan struct{})}
	c.mu.Lock()
	// Re-check closed under c.mu: Close tears connections down under this
	// lock, so either we see closed here, or Close runs after us and
	// severs the connection we just installed.
	x.mu.Lock()
	closed = x.closed
	x.mu.Unlock()
	if closed {
		c.mu.Unlock()
		nc.Close()
		return nil, x.errClosed
	}
	c.cur = cs
	c.lastFail = time.Time{}
	redial := c.everConnected
	c.everConnected = true
	c.mu.Unlock()
	x.cfg.Dials.Inc()
	if redial {
		x.cfg.Redials.Inc()
	}
	go c.readLoop(cs)
	go c.writeLoop(cs)
	return cs, nil
}

// writeLoop drains the connection's out-queue into vectored writes until
// the connection dies. Each batch carries a write deadline; the first
// failed or timed-out write tears the connection down.
func (c *Conn) writeLoop(cs *connState) {
	x := c.x
	batchio.WriteLoop(cs.nc, cs.out, cs.dead, x.cfg.CallTimeout, frameBytes, putFrame,
		func(err error) {
			x.cfg.Logf("%s: write to %s: %v", x.cfg.Name, c.addr, err)
			c.teardown(cs)
		}, nil, x.cfg.Writes)
}

// readLoop decodes responses off one connection and completes the
// pending calls they answer, by reqID, on this goroutine. Each response
// gets a fresh Msg: it is owned by the call it completes. A reply nobody
// is waiting for — its call timed out — is dropped.
func (c *Conn) readLoop(cs *connState) {
	readFrames(cs.nc, 0, func(body []byte) bool {
		m := new(wire.Msg)
		if err := m.Decode(body); err != nil {
			c.x.cfg.Logf("%s: %s: bad response frame: %v", c.x.cfg.Name, c.addr, err)
			return false
		}
		c.mu.Lock()
		cl, ok := c.pending[m.ReqID]
		delete(c.pending, m.ReqID)
		c.mu.Unlock()
		if ok {
			c.health(true)
			cl.done(m, nil)
		}
		return true
	})
	c.teardown(cs)
}

// teardown severs cs: the socket closes, producers are told to stop
// (dead), and — if cs is still the current connection — every pending
// call fails and the far end is reported down. A stale connState
// (already replaced by a redial) only cleans up after itself.
func (c *Conn) teardown(cs *connState) {
	cs.kill()
	cs.nc.Close()
	var lost []call
	c.mu.Lock()
	current := c.cur == cs
	if current {
		c.cur = nil
		for id, cl := range c.pending {
			delete(c.pending, id)
			lost = append(lost, cl)
		}
	}
	c.mu.Unlock()
	if current {
		c.health(false)
	}
	for _, cl := range lost {
		cl.done(nil, fmt.Errorf("%s: %s: connection lost awaiting reply", c.x.cfg.Name, c.addr))
	}
}
