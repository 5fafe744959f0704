package rpc

import (
	"net"
	"sync"
	"time"

	"discovery/internal/batchio"
	"discovery/internal/wire"
)

// Listener is the served half of every connection the two listeners
// accept: it accepts connections, keeps the set of live ones, serves
// each one (ServedConn), and severs them all on Close. The zero value is
// ready to use.
type Listener struct {
	mu     sync.Mutex
	lis    net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	served sync.WaitGroup // the accept loop and the connections not yet finished
}

// ServeConfig is what one listener's connections share. The zero value
// serves with every default, silent and unmetered.
type ServeConfig struct {
	// Name prefixes log lines ("server", "p2p").
	Name string
	// ReadBuffer sizes each connection's buffered reader, letting a
	// pipelined burst decode several frames per read(2). 0 selects
	// batchio.ReadBufferSize; negative reads the raw socket.
	ReadBuffer int
	// WriteTimeout bounds one vectored response write (0 selects
	// batchio.DefaultWriteTimeout). A peer that stops reading trips it
	// and is severed.
	WriteTimeout time.Duration
	// Logf receives connection-level error lines (nil = silent).
	Logf func(format string, args ...any)
	// Writes meters the response writers' coalescing (nil = unmetered).
	Writes *batchio.Stats
	// Severed, when set, is called once for each connection a failed
	// write severs.
	Severed func()
	// Flushed, when set, observes every traced frame once its batch is
	// written: the frame's trace ID, its unix-nano enqueue instant, the
	// flush instant, and the batch's frame count.
	Flushed func(trace uint64, enq, now int64, batch int)
}

// Bind makes lis the listener Serve accepts on and Close closes; a bound
// listener must then be served. After Close it closes lis instead and
// reports false.
func (l *Listener) Bind(lis net.Listener) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		lis.Close()
		return false
	}
	l.lis = lis
	l.served.Add(1) // the accept loop, until Serve returns
	if l.conns == nil {
		l.conns = make(map[net.Conn]struct{})
	}
	return true
}

// Serve accepts on the bound listener until Close and serves every
// connection: newHandler builds the connection's frame handler, which
// its reader goroutine calls with each request frame's body (valid only
// until the handler returns) until the connection fails or the handler
// returns false. Serve returns nil after Close and the accept error
// otherwise.
func (l *Listener) Serve(cfg ServeConfig, newHandler func(*ServedConn) func(body []byte) bool) error {
	defer l.served.Done()
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = batchio.DefaultWriteTimeout
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	for {
		nc, err := l.lis.Accept()
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			if err == nil {
				nc.Close()
			}
			return nil
		}
		if err != nil {
			l.mu.Unlock()
			return err
		}
		l.conns[nc] = struct{}{}
		l.served.Add(1)
		l.mu.Unlock()
		go l.serve(newServedConn(nc, &cfg), newHandler)
	}
}

// serve runs one connection to its end. The reader is the only source of
// new requests, so once it stops the drain is ordered: wait out the
// requests still in flight, close the out-queue behind their responses,
// let the writer flush it, then close the socket.
func (l *Listener) serve(c *ServedConn, newHandler func(*ServedConn) func(body []byte) bool) {
	defer l.served.Done()
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		c.writeLoop()
	}()
	readFrames(c.nc, c.cfg.ReadBuffer, newHandler(c))
	c.inflight.Wait()
	close(c.out)
	<-wrote
	c.nc.Close()
	l.mu.Lock()
	delete(l.conns, c.nc)
	l.mu.Unlock()
}

// Len returns how many connections are live.
func (l *Listener) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.conns)
}

// Close stops accepting and closes every live connection, which ends
// their readers and fails any write a wedged peer is holding. It reports
// whether this call was the first.
func (l *Listener) Close() bool {
	l.mu.Lock()
	first := !l.closed
	l.closed = true
	lis := l.lis
	for nc := range l.conns {
		nc.Close()
	}
	l.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	return first
}

// Wait returns once Serve has returned and every connection it accepted
// has finished: its handler calls returned, its in-flight requests were
// answered (Done), and its writer exited. Call it after Close.
func (l *Listener) Wait() { l.served.Wait() }

// ServedConn is the served half of one accepted connection: the owner's
// handler reads its requests, and Send queues their responses for the
// connection's coalescing writer.
type ServedConn struct {
	nc       net.Conn
	cfg      *ServeConfig
	out      chan frame // encoded response frames (pooled); closed by the drain
	inflight sync.WaitGroup
}

func newServedConn(nc net.Conn, cfg *ServeConfig) *ServedConn {
	return &ServedConn{nc: nc, cfg: cfg, out: make(chan frame, batchio.MaxFrames)}
}

// Add marks one request in flight: the connection's drain waits for its
// Done before the out-queue closes, so its response may still be sent
// after the reader has stopped. Call it from the handler.
func (c *ServedConn) Add() { c.inflight.Add(1) }

// Done retires a request marked by Add, after its last Send.
func (c *ServedConn) Done() { c.inflight.Done() }

// Send encodes m and queues it for the writer, waiting for queue room;
// once a write has failed, the writer drops what it is sent. tr is the
// originating request's trace ID (0 = untraced), handed to
// ServeConfig.Flushed. m is not retained. Send must happen on the
// handler's call or before the Done of a request marked by Add.
func (c *ServedConn) Send(m *wire.Msg, tr uint64) { c.out <- c.encode(m, tr) }

// TrySend is Send that never waits: when the out-queue is full it sends
// nothing and reports false.
func (c *ServedConn) TrySend(m *wire.Msg, tr uint64) bool {
	f := c.encode(m, tr)
	select {
	case c.out <- f:
		return true
	default:
		putFrame(f)
		return false
	}
}

// encode frames m into a pooled buffer. A traced frame is timestamped so
// the writer can report its enqueue→flush time.
func (c *ServedConn) encode(m *wire.Msg, tr uint64) frame {
	f := frame{bp: frames.Get().(*[]byte), trace: tr}
	b, err := m.Append((*f.bp)[:0])
	if err != nil {
		// A response that cannot be encoded must not take its sender down:
		// log it and answer with an error frame instead.
		c.cfg.Logf("%s: encode %v response: %v", c.cfg.Name, m.Type, err)
		b, _ = (&wire.Msg{Type: wire.TError, ReqID: m.ReqID, Value: []byte("internal encode error")}).Append((*f.bp)[:0])
	}
	*f.bp = b
	if tr != 0 {
		f.enq = time.Now().UnixNano()
	}
	return f
}

// writeLoop flushes the out-queue with coalesced vectored writes until
// the drain closes it. The first failed or timed-out write closes the
// socket, which also ends the reader; the loop keeps draining, dropping
// what it is sent, so responders never block on a dead peer.
func (c *ServedConn) writeLoop() {
	var flushed func([]frame)
	if c.cfg.Flushed != nil {
		flushed = func(batch []frame) {
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
				c.cfg.Flushed(f.trace, f.enq, now, len(batch))
			}
		}
	}
	batchio.WriteLoop(c.nc, c.out, nil, c.cfg.WriteTimeout, frameBytes, putFrame,
		func(err error) {
			if c.cfg.Severed != nil {
				c.cfg.Severed()
			}
			c.cfg.Logf("%s: write to %v: %v", c.cfg.Name, c.nc.RemoteAddr(), err)
			c.nc.Close()
		}, flushed, c.cfg.Writes)
}
