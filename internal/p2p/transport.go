package p2p

import (
	"fmt"
	"sync"
	"time"

	"discovery/internal/batchio"
	"discovery/internal/metrics"
	"discovery/internal/rpc"
	"discovery/internal/trace"
	"discovery/internal/wire"
)

// Transport is the outbound half of the peer protocol: one multiplexed,
// coalescing connection per peer (internal/rpc does the dialing, reqID
// correlation, timeouts and vectored writes) plus what is peer policy —
// DialVia indirection, the overlay's Alive flags, the peer_call span,
// the p2p.* metrics, and membership probes.
type Transport struct {
	cluster *Cluster
	overlay *RemoteOverlay
	mux     *rpc.Mux
	peers   []*rpc.Conn

	mu      sync.Mutex
	closed  bool
	probing bool

	// addrMu guards the client-address advertisement plumbing: the
	// address this node tells peers about, and the callback invoked with
	// addresses peers tell us about.
	addrMu         sync.Mutex
	selfClientAddr string
	peerAddrFn     func(i int, addr string)

	// proberQuit stops the health prober and proberWg waits for it.
	proberQuit chan struct{}
	proberWg   sync.WaitGroup

	// Instrumentation, registry-backed so a process-wide /metrics scrape
	// and WriteStats read the same atomics. writes counts vectored
	// write(2) calls, framesOut the frames they carried — frames/writes
	// is the coalescing ratio, with p2p.frames_per_write holding its
	// distribution. calls/callErrors/callNanos meter Call round trips.
	writes     *metrics.Counter
	framesOut  *metrics.Counter
	calls      *metrics.Counter
	callErrors *metrics.Counter
	callNanos  *metrics.Histogram

	// tracer records the outbound hop span of traced calls (set by
	// NewNode from Config.Tracer; nil disables — Record is nil-safe).
	tracer *trace.Tracer
}

// Transport retry/timeout defaults, shared with the cmd flag layer so
// flag help and behavior can never drift apart.
const (
	DefaultDialTimeout   = rpc.DefaultDialTimeout
	DefaultCallTimeout   = rpc.DefaultCallTimeout
	DefaultRedialBackoff = rpc.DefaultRedialBackoff
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
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	t := &Transport{
		cluster:    c,
		overlay:    ov,
		peers:      make([]*rpc.Conn, c.N()),
		proberQuit: make(chan struct{}),
		writes:     reg.Counter("p2p.writes"),
		framesOut:  reg.Counter("p2p.frames"),
		calls:      reg.Counter("p2p.calls"),
		callErrors: reg.Counter("p2p.call_errors"),
		callNanos:  reg.Histogram("p2p.call_seconds", 1e-9),
	}
	t.mux = rpc.New(rpc.Config{
		Name:          "p2p",
		DialTimeout:   cfg.DialTimeout,
		CallTimeout:   cfg.CallTimeout,
		RedialBackoff: cfg.RedialBackoff,
		Logf:          cfg.Logf,
		Writes:        &batchio.Stats{Writes: t.writes, Frames: t.framesOut, FramesPerWrite: reg.Histogram("p2p.frames_per_write", 1)},
		Dials:         reg.Counter("p2p.dials"),
		Redials:       reg.Counter("p2p.redials"),
	})
	for i := range t.peers {
		addr := c.Addr(i)
		dialAddr := addr
		if via, ok := cfg.DialVia[addr]; ok && via != "" {
			dialAddr = via
		}
		t.peers[i] = t.mux.Conn(addr, dialAddr, func(up bool) { ov.SetAlive(i, up) })
	}
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

// Call sends m to peer i and waits for its response, dialing or redialing
// as needed. m.ReqID is assigned by the connection. The returned message
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
// is invoked exactly once with the reply or the failure, after the hop's
// span and metrics are recorded. It never blocks on a slow or dead peer,
// and done must not block either — see rpc.Conn.Go for where it may run.
func (t *Transport) Go(i int, m *wire.Msg, done func(*wire.Msg, error)) {
	t.calls.Inc()
	start := time.Now()
	var trc uint64
	if m.Traced {
		trc = m.Trace
	}
	finish := func(resp *wire.Msg, err error) {
		if trc != 0 {
			// The peer_call span covers encode → reply (or failure) for this
			// hop; the responder's own spans nest inside it under the same ID.
			t.tracer.Record(trc, trace.KindPeerCall, start, time.Since(start), uint64(i))
		}
		if err != nil {
			t.callErrors.Inc()
		} else {
			t.callNanos.Observe(int64(time.Since(start)))
		}
		done(resp, err)
	}
	if i == t.cluster.Self() {
		finish(nil, fmt.Errorf("p2p: call to self (index %d)", i))
		return
	}
	t.peers[i].Go(m, finish)
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
	// Connections first: a probe in flight fails at once instead of
	// holding the prober (and this wait) until its reply or timeout.
	t.mux.Close()
	t.proberWg.Wait()
}
