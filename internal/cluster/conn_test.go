package cluster_test

import (
	"bufio"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	discovery "discovery"
	"discovery/internal/cluster"
	"discovery/internal/wire"
)

// This file pins what the client inherits from the shared connection
// engine (internal/rpc), against stub nodes that misbehave in ways a
// healthy server never would: silence, a severed connection, a cold
// listener hit by many callers at once, an address that swallows SYNs.

// stubNode speaks the client protocol on one loopback address. TMembers
// is answered with the table set by serveTable; every other request goes
// to handle, whose nil return withholds the reply.
type stubNode struct {
	addr     string
	lis      net.Listener
	accepts  atomic.Int64 // connections accepted
	requests atomic.Int64 // non-TMembers requests read
	table    atomic.Pointer[wire.Msg]
	handle   func(nc net.Conn, m *wire.Msg) *wire.Msg
}

// found answers any routed lookup.
func found(net.Conn, *wire.Msg) *wire.Msg {
	return &wire.Msg{Type: wire.TLookupOK, Lookup: wire.LookupReply{Found: true, Replies: 1}}
}

func startStub(t *testing.T, addr string, handle func(nc net.Conn, m *wire.Msg) *wire.Msg) *stubNode {
	t.Helper()
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	s := &stubNode{addr: lis.Addr().String(), lis: lis, handle: handle}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			nc, err := lis.Accept()
			if err != nil {
				return
			}
			s.accepts.Add(1)
			go s.serve(nc)
		}
	}()
	return s
}

func (s *stubNode) serve(nc net.Conn) {
	defer nc.Close()
	br := bufio.NewReader(nc)
	var scratch []byte
	for {
		body, err := wire.ReadFrame(br, &scratch)
		if err != nil {
			return
		}
		m := new(wire.Msg)
		if err := m.Decode(body); err != nil {
			return
		}
		var reply *wire.Msg
		if m.Type == wire.TMembers {
			tbl := *s.table.Load()
			reply = &tbl
		} else {
			s.requests.Add(1)
			reply = s.handle(nc, m)
		}
		if reply == nil {
			continue
		}
		reply.ReqID = m.ReqID
		frame, err := reply.Append(nil)
		if err != nil {
			return
		}
		if _, err := nc.Write(frame); err != nil {
			return
		}
	}
}

// serveTable makes every stub advertise addrs (in slot order) with
// replication len(addrs), so every member replicates every key and a
// key's failover order is its owner, then the slots after it.
func serveTable(addrs []string, stubs ...*stubNode) {
	for _, s := range stubs {
		s.table.Store(&wire.Msg{Type: wire.TMembersOK, Cluster: 42, Replication: uint32(len(addrs)), Members: addrs})
	}
}

// keyOwnedBy returns a key whose owner among n members is slot.
func keyOwnedBy(slot, n int) discovery.ID {
	return discovery.NewID(keysOwnedBy(slot, n, 1, "conn")[0])
}

// TestSilentNodeTimesOutAndFailsOver: a node that accepts and never
// answers costs one call timeout — reported by the sweeper between 1x and
// 1.25x CallTimeout — then the key's next replica serves the request, and
// nothing stays pending.
func TestSilentNodeTimesOutAndFailsOver(t *testing.T) {
	const callTimeout = 400 * time.Millisecond
	silent := startStub(t, "127.0.0.1:0", func(net.Conn, *wire.Msg) *wire.Msg { return nil })
	good := startStub(t, "127.0.0.1:0", found)
	serveTable([]string{silent.addr, good.addr}, silent, good)

	var logMu sync.Mutex
	var logged []string
	c, err := cluster.Dial(cluster.Config{Seeds: []string{good.addr}, CallTimeout: callTimeout, Logf: func(f string, a ...any) {
		logMu.Lock()
		defer logMu.Unlock()
		if len(a) == 3 {
			if e, ok := a[2].(error); ok {
				logged = append(logged, e.Error())
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	res, err := c.Lookup(cluster.OriginAuto, keyOwnedBy(0, 2))
	took := time.Since(start)
	if err != nil || !res.Found {
		t.Fatalf("lookup behind a silent owner: %+v, %v", res, err)
	}
	// 150 ms of slack above the sweeper's bound for a loaded test host.
	if took < callTimeout || took > callTimeout*5/4+150*time.Millisecond {
		t.Fatalf("failover after %s, want between %s and %s", took, callTimeout, callTimeout*5/4)
	}
	if st := c.Stats(); st.Failovers != 1 || st.Routed != 1 {
		t.Fatalf("stats %+v, want 1 routed + 1 failover", st)
	}
	logMu.Lock()
	defer logMu.Unlock()
	if len(logged) != 1 || !strings.Contains(logged[0], "no reply within") {
		t.Fatalf("failover reasons %q, want one call timeout", logged)
	}
	if n := c.Pending(); n != 0 {
		t.Fatalf("%d calls still pending after the timeout and the failover", n)
	}
}

// TestSeveredConnectionFailsEveryCallAndRedials: a connection cut with 64
// calls in flight fails each of them once, at once, and the next call
// dials a fresh connection.
func TestSeveredConnectionFailsEveryCallAndRedials(t *testing.T) {
	const inflight = 64
	var seen atomic.Int64
	var sever atomic.Bool
	sever.Store(true)
	node := startStub(t, "127.0.0.1:0", func(nc net.Conn, m *wire.Msg) *wire.Msg {
		if !sever.Load() {
			return found(nc, m)
		}
		if seen.Add(1) == inflight {
			nc.Close()
		}
		return nil
	})
	serveTable([]string{node.addr}, node)
	c, err := cluster.Dial(cluster.Config{Seeds: []string{node.addr}, CallTimeout: 10 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	key := keyOwnedBy(0, 1)
	errs := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func() {
			_, err := c.Lookup(cluster.OriginAuto, key)
			errs <- err
		}()
	}
	for i := 0; i < inflight; i++ {
		select {
		case err := <-errs:
			if err == nil || !strings.Contains(err.Error(), "connection lost") {
				t.Fatalf("call %d on the severed connection: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d calls never returned after the connection was cut", inflight-i, inflight)
		}
	}
	if n := c.Pending(); n != 0 {
		t.Fatalf("%d calls still pending after the teardown", n)
	}
	sever.Store(false)
	if res, err := c.Lookup(cluster.OriginAuto, key); err != nil || !res.Found {
		t.Fatalf("lookup after the cut: %+v, %v", res, err)
	}
	if got := node.accepts.Load(); got != 2 {
		t.Fatalf("%d connections accepted, want 2 (the cut one and one redial)", got)
	}
}

// TestConcurrentFirstCallsShareOneDial: 32 goroutines making their first
// call to a cold node open one socket between them, not one each.
func TestConcurrentFirstCallsShareOneDial(t *testing.T) {
	seed := startStub(t, "127.0.0.1:0", found)
	cold := startStub(t, "127.0.0.1:0", found)
	serveTable([]string{cold.addr, seed.addr}, seed, cold)
	c, err := cluster.Dial(cluster.Config{Seeds: []string{seed.addr}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const callers = 32
	key := keyOwnedBy(0, 2)
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			if res, err := c.Lookup(cluster.OriginAuto, key); err != nil || !res.Found {
				t.Errorf("first call: %+v, %v", res, err)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if got := cold.requests.Load(); got != callers {
		t.Fatalf("cold node served %d of %d requests", got, callers)
	}
	if got := cold.accepts.Load(); got != 1 {
		t.Fatalf("%d concurrent first calls opened %d sockets, want 1", callers, got)
	}
}

// TestRefusedDialDoesNotArmBackoff: a node that is down refuses dials
// fast, so nothing is saved by backing off — and a node that has just
// restarted must be reachable at once (rolling restarts rely on it).
func TestRefusedDialDoesNotArmBackoff(t *testing.T) {
	node := startStub(t, "127.0.0.1:0", found)
	other := startStub(t, "127.0.0.1:0", found)
	serveTable([]string{node.addr, other.addr}, node, other)
	c, err := cluster.Dial(cluster.Config{Seeds: []string{other.addr}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	key := keyOwnedBy(0, 2)
	node.lis.Close() // down: dials are refused
	if res, err := c.Lookup(cluster.OriginAuto, key); err != nil || !res.Found {
		t.Fatalf("lookup with the owner down: %+v, %v", res, err)
	}
	if st := c.Stats(); st.Failovers != 1 {
		t.Fatalf("stats %+v, want 1 failover", st)
	}
	back := startStub(t, node.addr, found) // restarted on the same address
	if res, err := c.Lookup(cluster.OriginAuto, key); err != nil || !res.Found {
		t.Fatalf("lookup right after the restart: %+v, %v", res, err)
	}
	if back.requests.Load() != 1 || c.Stats().Failovers != 1 {
		t.Fatalf("restarted owner served %d requests, stats %+v: the refused dial armed the backoff", back.requests.Load(), c.Stats())
	}
}
