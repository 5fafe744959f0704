// Package faultnet is a transparent TCP proxy for fault injection.
//
// A Proxy listens on one address and forwards every accepted connection
// to a single fixed target, pumping bytes in both directions through a
// configurable fault pipeline. Faults are set per *direction* of the
// proxied link, so a single link can be made asymmetric (requests
// delivered, replies dropped). Everything is runtime-reconfigurable
// while traffic is live: SetFaults swaps an atomic pointer that the
// pump loops consult on every chunk, so a scenario can flip a link from
// healthy to partitioned to slow without touching the connections.
//
// Supported faults:
//
//   - Blackhole: deliver nothing (bytes read and discarded), keeping
//     the TCP connection open — models a silent one-way partition.
//   - Latency/Jitter: fixed plus uniformly-jittered delay per chunk.
//   - BandwidthBps: token-bucket throttle on the copy loop.
//   - ReorderProb: hold a flush-boundary chunk back and emit it after
//     the next one (adjacent swap), modelling cross-connection
//     reordering at message granularity without corrupting TCP itself.
//   - Partition/Heal: refuse new connections and sever live ones with
//     an RST; Heal clears every fault and accepts again.
//   - Reset: RST all live connections once, but keep accepting —
//     models mid-stream connection resets rather than a partition.
//
// The zero Faults value is a faithful wire. Proxies compose into a
// mesh: to fault the directed link A→B independently of B→A, give A a
// private proxy in front of B (see internal/chaos).
package faultnet

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Direction selects which half of a proxied connection a fault applies
// to, named from the dialing client's point of view.
type Direction int

const (
	// Forward is client→target: requests.
	Forward Direction = iota
	// Backward is target→client: replies.
	Backward
)

// Faults describes the treatment of one direction of a link. The zero
// value forwards faithfully.
type Faults struct {
	// Blackhole discards everything read, keeping the connection open.
	Blackhole bool
	// Latency delays each forwarded chunk by this much.
	Latency time.Duration
	// Jitter adds a uniform random [0,Jitter) on top of Latency.
	Jitter time.Duration
	// BandwidthBps caps throughput via a token bucket (0 = unlimited).
	BandwidthBps int64
	// ReorderProb is the chance, per flush-boundary chunk, that the
	// chunk is held back and emitted after its successor (adjacent
	// swap). Held chunks flush after reorderFlushDelay of silence so a
	// final in-flight message cannot be withheld forever.
	ReorderProb float64
}

// reorderFlushDelay bounds how long a held (reordered) chunk may wait
// for a successor before being flushed anyway. A var so tests can
// tighten or relax it.
var reorderFlushDelay = 25 * time.Millisecond

// Stats is a point-in-time snapshot of proxy activity.
type Stats struct {
	Accepted      uint64 // connections accepted (including refused-then-reset ones)
	Refused       uint64 // connections reset immediately due to partition
	Severed       uint64 // live connections reset by Partition/Reset
	Active        int    // currently proxied connections
	ForwardBytes  uint64 // bytes delivered client→target
	BackwardBytes uint64 // bytes delivered target→client
}

// Proxy is one listening fault-injection proxy in front of one target
// address. Create with Listen, stop with Close. All methods are safe
// for concurrent use.
type Proxy struct {
	lis    net.Listener
	target string
	logf   func(format string, args ...any)

	faults [2]atomic.Pointer[Faults]
	refuse atomic.Bool
	seed   atomic.Uint64

	accepted atomic.Uint64
	refused  atomic.Uint64
	severed  atomic.Uint64
	bytes    [2]atomic.Uint64

	mu     sync.Mutex
	links  map[*link]struct{}
	closed bool
	wg     sync.WaitGroup
}

// link is one proxied connection pair.
type link struct {
	client net.Conn
	target net.Conn
	once   sync.Once
}

func (lk *link) kill(rst bool) {
	lk.once.Do(func() {
		if rst {
			if tc, ok := lk.client.(*net.TCPConn); ok {
				tc.SetLinger(0)
			}
			if tc, ok := lk.target.(*net.TCPConn); ok {
				tc.SetLinger(0)
			}
		}
		lk.client.Close()
		lk.target.Close()
	})
}

// Listen starts a proxy on listen (e.g. "127.0.0.1:0") forwarding to
// target. logf may be nil.
func Listen(listen, target string, logf func(format string, args ...any)) (*Proxy, error) {
	lis, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("faultnet: listen %s: %w", listen, err)
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	p := &Proxy{
		lis:    lis,
		target: target,
		logf:   logf,
		links:  make(map[*link]struct{}),
	}
	p.seed.Store(uint64(0x9e3779b97f4a7c15)) // deterministic reorder stream
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the proxy's listening address — the address to dial instead
// of the target.
func (p *Proxy) Addr() string { return p.lis.Addr().String() }

// SetFaults installs the fault set for one direction, effective from
// the next forwarded chunk on every current and future connection.
func (p *Proxy) SetFaults(d Direction, f Faults) {
	cp := f
	p.faults[d].Store(&cp)
}

// ClearFaults restores a faithful wire in both directions (it does not
// lift a partition; see Heal).
func (p *Proxy) ClearFaults() {
	p.faults[Forward].Store(nil)
	p.faults[Backward].Store(nil)
}

// Partition hard-partitions the link: new connections are reset on
// accept and every live connection is severed with an RST.
func (p *Proxy) Partition() {
	p.refuse.Store(true)
	p.severAll()
}

// Heal lifts a partition and clears all faults.
func (p *Proxy) Heal() {
	p.refuse.Store(false)
	p.ClearFaults()
}

// Reset severs every live connection with an RST but keeps accepting —
// a mid-stream connection-reset storm rather than a partition.
func (p *Proxy) Reset() { p.severAll() }

// Stats returns a snapshot of the proxy's counters.
func (p *Proxy) Stats() Stats {
	p.mu.Lock()
	active := len(p.links)
	p.mu.Unlock()
	return Stats{
		Accepted:      p.accepted.Load(),
		Refused:       p.refused.Load(),
		Severed:       p.severed.Load(),
		Active:        active,
		ForwardBytes:  p.bytes[Forward].Load(),
		BackwardBytes: p.bytes[Backward].Load(),
	}
}

// Close stops accepting and severs all live connections.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	err := p.lis.Close()
	p.severAll()
	p.wg.Wait()
	return err
}

func (p *Proxy) severAll() {
	p.mu.Lock()
	links := make([]*link, 0, len(p.links))
	for lk := range p.links {
		links = append(links, lk)
	}
	p.mu.Unlock()
	for _, lk := range links {
		lk.kill(true)
		p.severed.Add(1)
	}
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		c, err := p.lis.Accept()
		if err != nil {
			return // Close
		}
		p.accepted.Add(1)
		if p.refuse.Load() {
			// Reset immediately: the dialer's connect succeeds, its
			// first I/O fails fast — close to ECONNREFUSED semantics
			// without racing a listener rebind.
			if tc, ok := c.(*net.TCPConn); ok {
				tc.SetLinger(0)
			}
			c.Close()
			p.refused.Add(1)
			continue
		}
		p.wg.Add(1)
		go p.serve(c)
	}
}

func (p *Proxy) serve(client net.Conn) {
	defer p.wg.Done()
	target, err := net.DialTimeout("tcp", p.target, 5*time.Second)
	if err != nil {
		p.logf("faultnet: %s -> %s: %v", p.Addr(), p.target, err)
		client.Close()
		return
	}
	lk := &link{client: client, target: target}
	p.mu.Lock()
	if p.closed || p.refuse.Load() {
		p.mu.Unlock()
		lk.kill(true)
		return
	}
	p.links[lk] = struct{}{}
	p.mu.Unlock()

	var pumps sync.WaitGroup
	pumps.Add(2)
	go func() { defer pumps.Done(); p.pump(lk, Forward) }()
	go func() { defer pumps.Done(); p.pump(lk, Backward) }()
	pumps.Wait()

	lk.kill(false)
	p.mu.Lock()
	delete(p.links, lk)
	p.mu.Unlock()
}

// pump copies one direction of lk through the fault pipeline until
// either side of the connection dies.
func (p *Proxy) pump(lk *link, d Direction) {
	src, dst := lk.client, lk.target
	if d == Backward {
		src, dst = lk.target, lk.client
	}
	buf := make([]byte, 32<<10)
	var held []byte // one chunk withheld for reordering
	var allowance float64
	lastFill := time.Now()
	for {
		if held != nil {
			src.SetReadDeadline(time.Now().Add(reorderFlushDelay))
		} else {
			src.SetReadDeadline(time.Time{})
		}
		n, rerr := src.Read(buf)
		if ne, ok := rerr.(net.Error); ok && ne.Timeout() && held != nil {
			// No successor arrived: flush the held chunk unfaulted so a
			// final message cannot be withheld forever.
			if !p.deliver(dst, d, held, nil, &allowance, &lastFill) {
				return
			}
			held = nil
			continue
		}
		if n > 0 {
			f := p.faults[d].Load()
			switch {
			case f != nil && f.Blackhole:
				// Read and discarded; connection stays open. A held
				// chunk predating the blackhole is swallowed with it.
				held = nil
			case f != nil && f.ReorderProb > 0 && held == nil && p.chance(f.ReorderProb):
				held = append([]byte(nil), buf[:n]...)
			default:
				// Emit this chunk, then any held predecessor: the
				// adjacent pair arrives swapped.
				if !p.deliver(dst, d, buf[:n], f, &allowance, &lastFill) {
					return
				}
				if held != nil {
					if !p.deliver(dst, d, held, f, &allowance, &lastFill) {
						return
					}
					held = nil
				}
			}
		}
		if rerr != nil {
			if held != nil {
				p.deliver(dst, d, held, nil, &allowance, &lastFill)
			}
			// Half-close so the peer observes EOF; the other pump
			// keeps draining until its own side ends.
			if tc, ok := dst.(*net.TCPConn); ok {
				tc.CloseWrite()
			} else {
				dst.Close()
			}
			return
		}
	}
}

// deliver applies latency, jitter and bandwidth faults and writes chunk
// to dst. Returns false when the link is dead.
func (p *Proxy) deliver(dst net.Conn, d Direction, chunk []byte, f *Faults, allowance *float64, lastFill *time.Time) bool {
	if f != nil {
		if f.BandwidthBps > 0 {
			now := time.Now()
			*allowance += now.Sub(*lastFill).Seconds() * float64(f.BandwidthBps)
			*lastFill = now
			if burst := float64(f.BandwidthBps) / 4; *allowance > burst {
				*allowance = burst
			}
			if need := float64(len(chunk)) - *allowance; need > 0 {
				wait := time.Duration(need / float64(f.BandwidthBps) * float64(time.Second))
				time.Sleep(wait)
				*lastFill = time.Now()
				*allowance = 0
			} else {
				*allowance -= float64(len(chunk))
			}
		}
		if delay := f.Latency + p.jitter(f.Jitter); delay > 0 {
			time.Sleep(delay)
		}
	}
	if _, err := dst.Write(chunk); err != nil {
		return false
	}
	p.bytes[d].Add(uint64(len(chunk)))
	return true
}

// chance draws from the proxy's deterministic splitmix64 stream.
func (p *Proxy) chance(prob float64) bool {
	return float64(p.next()>>11)/float64(1<<53) < prob
}

func (p *Proxy) jitter(j time.Duration) time.Duration {
	if j <= 0 {
		return 0
	}
	return time.Duration(p.next() % uint64(j))
}

func (p *Proxy) next() uint64 {
	z := p.seed.Add(0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
