package server

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	discovery "discovery"
	"discovery/internal/wire"
)

// newTestServer starts a daemon over a complete overlay, where lookup
// success is structural (every argmax node receives a flow when ties fit
// the quota), so "every inserted key is findable" holds for any request
// interleaving. MaxHops is capped because past the argmax tier a complete
// overlay has no further local maxima to stop a flow.
func newTestServer(t testing.TB, shards, queueDepth int) (*Server, string, *discovery.Pool) {
	t.Helper()
	ov, err := discovery.CompleteOverlay(256, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := discovery.NewPool(ov, shards, discovery.WithSeed(1), discovery.WithMaxHops(8))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Pool: pool, QueueDepth: queueDepth, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr.String(), pool
}

// TestE2EConcurrentClients drives one server with many connections at
// once: every client inserts its own keys, then all clients look up all
// keys. Every inserted key must be findable, and the daemon's stats must
// account for every request. Run under -race in CI.
func TestE2EConcurrentClients(t *testing.T) {
	const clients, keysPer = 8, 24
	_, addr, pool := newTestServer(t, 4, 16)

	key := func(c, i int) string { return fmt.Sprintf("client-%d-key-%d", c, i) }

	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < keysPer; i++ {
				res, err := c.Insert(OriginAuto, discovery.NewID(key(cl, i)), []byte(key(cl, i)))
				if err != nil {
					t.Errorf("client %d insert %d: %v", cl, i, err)
					return
				}
				if res.Replicas == 0 {
					t.Errorf("client %d insert %d stored nothing", cl, i)
				}
			}
		}(cl)
	}
	wg.Wait()

	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			// Each client looks up every other client's keys too.
			for other := 0; other < clients; other++ {
				for i := 0; i < keysPer; i++ {
					res, err := c.Lookup((cl*97+i)%256, discovery.NewID(key(other, i)))
					if err != nil {
						t.Errorf("client %d lookup: %v", cl, err)
						return
					}
					if !res.Found {
						t.Errorf("client %d: key %s not found", cl, key(other, i))
					}
				}
			}
		}(cl)
	}
	wg.Wait()

	// The pool's ledger must account for every request that was served.
	st := pool.Stats()
	if st.Inserts != clients*keysPer {
		t.Errorf("pool inserts = %d, want %d", st.Inserts, clients*keysPer)
	}
	if st.Lookups != clients*clients*keysPer {
		t.Errorf("pool lookups = %d, want %d", st.Lookups, clients*clients*keysPer)
	}
	if st.LookupsFound != st.Lookups {
		t.Errorf("found %d of %d lookups", st.LookupsFound, st.Lookups)
	}

	// And the same numbers must be visible over the wire.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ws, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if ws.Inserts != st.Inserts || ws.Lookups != st.Lookups || ws.Found != st.LookupsFound {
		t.Errorf("wire stats %+v disagree with pool stats %+v", ws, st)
	}
	if int(ws.Shards) != 4 || len(ws.ShardRequests) != 4 {
		t.Errorf("wire stats shards = %d/%d, want 4", ws.Shards, len(ws.ShardRequests))
	}
	var sum uint64
	for _, r := range ws.ShardRequests {
		sum += r
	}
	if sum != st.Requests {
		t.Errorf("wire per-shard sum %d != pool requests %d", sum, st.Requests)
	}
}

// TestE2EPipelining sends a burst of requests before reading any
// response, then matches responses to requests by reqID.
func TestE2EPipelining(t *testing.T) {
	const batch = 32
	_, addr, _ := newTestServer(t, 4, 16)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	kind := make(map[uint64]wire.Type, 2*batch)
	for i := 0; i < batch; i++ {
		id, err := c.Send(&wire.Msg{Type: wire.TInsert, Key: discovery.NewID(fmt.Sprintf("pipe-%d", i)), Origin: wire.OriginAuto, Value: []byte("v")})
		if err != nil {
			t.Fatal(err)
		}
		kind[id] = wire.TInsertOK
	}
	for i := 0; i < batch; i++ {
		id, err := c.Send(&wire.Msg{Type: wire.TLookup, Key: discovery.NewID(fmt.Sprintf("pipe-%d", i)), Origin: wire.OriginAuto})
		if err != nil {
			t.Fatal(err)
		}
		kind[id] = wire.TLookupOK
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var m wire.Msg
	for i := 0; i < 2*batch; i++ {
		if err := c.Recv(&m); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		want, ok := kind[m.ReqID]
		if !ok {
			t.Fatalf("response for unknown or duplicate reqID %d", m.ReqID)
		}
		delete(kind, m.ReqID)
		if m.Type != want {
			t.Fatalf("reqID %d: type %v, want %v", m.ReqID, m.Type, want)
		}
		if m.Type == wire.TLookupOK && !m.Lookup.Found {
			// Inserts for a key precede its lookup on this connection and
			// land on the same shard queue, so FIFO order guarantees the
			// insert executed first.
			t.Errorf("reqID %d: pipelined lookup missed", m.ReqID)
		}
	}
	if len(kind) != 0 {
		t.Fatalf("%d requests never answered", len(kind))
	}
}

// TestE2EBackpressure floods a depth-1 queue far beyond its capacity;
// every request must still complete exactly once.
func TestE2EBackpressure(t *testing.T) {
	const burst = 200
	_, addr, _ := newTestServer(t, 2, 1)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	pending := make(map[uint64]bool, burst)
	for i := 0; i < burst; i++ {
		id, err := c.Send(&wire.Msg{Type: wire.TInsert, Key: discovery.NewID(fmt.Sprintf("bp-%d", i)), Origin: wire.OriginAuto, Value: []byte("v")})
		if err != nil {
			t.Fatal(err)
		}
		pending[id] = true
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var m wire.Msg
	for i := 0; i < burst; i++ {
		if err := c.Recv(&m); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if !pending[m.ReqID] {
			t.Fatalf("unexpected reqID %d", m.ReqID)
		}
		delete(pending, m.ReqID)
		if m.Type != wire.TInsertOK {
			t.Fatalf("reqID %d: %v", m.ReqID, m.Type)
		}
	}
}

// TestE2EDeterminism runs the same sequential workload against two fresh
// servers with the same seed and shard count; every reply must match
// field for field.
func TestE2EDeterminism(t *testing.T) {
	run := func() (out []wire.Msg) {
		_, addr, _ := newTestServer(t, 3, 16)
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i := 0; i < 40; i++ {
			res, err := c.Insert(i%256, discovery.NewID(fmt.Sprintf("det-%d", i)), []byte("v"))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, wire.Msg{Type: wire.TInsertOK, Insert: res})
		}
		for i := 0; i < 40; i++ {
			res, err := c.Lookup((i*31)%256, discovery.NewID(fmt.Sprintf("det-%d", i)))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, wire.Msg{Type: wire.TLookupOK, Lookup: res})
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Insert != b[i].Insert || a[i].Lookup != b[i].Lookup {
			t.Fatalf("reply %d differs across identically-seeded servers:\n %+v\n %+v", i, a[i], b[i])
		}
	}
}

// TestE2EDeleteAndErrors covers the delete path and the server's error
// responses.
func TestE2EDeleteAndErrors(t *testing.T) {
	_, addr, _ := newTestServer(t, 2, 16)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	key := discovery.NewID("to-delete")
	if _, err := c.Insert(7, key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Foreign origin deletes nothing; owner delete removes the replicas.
	if n, err := c.Delete(8, key); err != nil || n != 0 {
		t.Fatalf("foreign delete: n=%d err=%v", n, err)
	}
	n, err := c.Delete(7, key)
	if err != nil || n == 0 {
		t.Fatalf("owner delete: n=%d err=%v", n, err)
	}
	res, err := c.Lookup(3, key)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("key still findable after delete")
	}

	// Origin beyond the overlay is rejected per request, connection kept.
	_, err = c.Lookup(100000, key)
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("oversized origin: err = %v", err)
	}
	// A response type sent as a request is rejected, connection kept.
	if _, err := c.Send(&wire.Msg{Type: wire.TInsertOK}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var m wire.Msg
	if err := c.Recv(&m); err != nil {
		t.Fatal(err)
	}
	if m.Type != wire.TError || !strings.Contains(m.ErrorText(), "unexpected message type") {
		t.Fatalf("got %v %q", m.Type, m.ErrorText())
	}
	// The connection survived both rejections.
	if _, err := c.Stats(); err != nil {
		t.Fatalf("connection dead after error responses: %v", err)
	}
}
