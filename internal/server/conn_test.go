package server

import (
	"encoding/binary"
	"net"
	"strings"
	"testing"
	"time"

	discovery "discovery"
	"discovery/internal/idspace"
	"discovery/internal/wire"
)

// TestErrorReplyForShortFrameUsesZeroReqID pins the fix for a pipelining
// hazard: a frame too short to carry a header must produce a TError with
// reqID 0, not the reqID left over from the previous frame's decode.
func TestErrorReplyForShortFrameUsesZeroReqID(t *testing.T) {
	_, addr, _ := newTestServer(t, 2, 16)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := NewClient(nc)

	// Poison the server's reused decode state with a nonzero reqID.
	if _, err := c.Lookup(OriginAuto, discovery.NewID("poison")); err != nil {
		t.Fatal(err)
	}

	// A 1-byte body cannot carry the 9-byte type+reqID header.
	if _, err := nc.Write([]byte{0, 0, 0, 1, byte(wire.TLookup)}); err != nil {
		t.Fatal(err)
	}
	var m wire.Msg
	if err := c.Recv(&m); err != nil {
		t.Fatal(err)
	}
	if m.Type != wire.TError {
		t.Fatalf("got %v, want TError", m.Type)
	}
	if m.ReqID != 0 {
		t.Fatalf("error reply reqID = %d, want 0 (stale correlator leaked)", m.ReqID)
	}
	// The connection survives and correlates normally afterwards.
	if _, err := c.Lookup(OriginAuto, discovery.NewID("after")); err != nil {
		t.Fatalf("connection unusable after short frame: %v", err)
	}
}

// TestRouteWithBadKindIsRefused pins where a TRoute wrapping a kind that
// cannot be routed is refused: Decode rejects the frame, so the client
// gets a TError naming the route kind and the connection keeps serving.
func TestRouteWithBadKindIsRefused(t *testing.T) {
	_, addr, _ := newTestServer(t, 2, 16)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := NewClient(nc)

	// type | reqID | kind | cluster hash | untraced trailer | key | origin
	body := make([]byte, 1+8+1+8+1+idspace.Bytes+4)
	body[0] = byte(wire.TRoute)
	binary.BigEndian.PutUint64(body[1:], 42)
	body[9] = byte(wire.TStats)
	frame := append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	var m wire.Msg
	if err := c.Recv(&m); err != nil {
		t.Fatal(err)
	}
	if m.Type != wire.TError || m.ReqID != 42 || !strings.Contains(m.ErrorText(), "route kind") {
		t.Fatalf("got %v reqID %d %q, want a TError for reqID 42 naming the route kind", m.Type, m.ReqID, m.ErrorText())
	}
	if _, err := c.Lookup(OriginAuto, discovery.NewID("after")); err != nil {
		t.Fatalf("connection unusable after refused route: %v", err)
	}
}

// TestServerForgetsClosedConns pins the connection-set cleanup: entries
// must not accumulate after clients disconnect.
func TestServerForgetsClosedConns(t *testing.T) {
	srv, addr, _ := newTestServer(t, 2, 16)
	for i := 0; i < 20; i++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Stats(); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	// Closing is asynchronous (reader EOF -> drain -> writer close);
	// poll briefly for the set to empty.
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := srv.ln.Len()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d connections still tracked after all clients closed", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestInsertValueLimitIsForwardable pins the uniform payload cap: the
// serving layer rejects values above wire.MaxValue — the largest value
// the TRoute peer wrapper can carry — so an insert never succeeds on
// its key's owning node but fails when entered through any other
// cluster node.
func TestInsertValueLimitIsForwardable(t *testing.T) {
	_, addr, _ := newTestServer(t, 2, 16)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Insert(OriginAuto, discovery.NewID("max-ok"), make([]byte, wire.MaxValue)); err != nil {
		t.Fatalf("insert at MaxValue refused: %v", err)
	}
	_, err = c.Insert(OriginAuto, discovery.NewID("max-over"), make([]byte, wire.MaxValue+1))
	if err == nil {
		t.Fatal("insert above MaxValue accepted; it could not be forwarded in a cluster")
	}
	if !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("limit error does not name the cause: %v", err)
	}
	// The connection survives the refusal.
	if _, err := c.Lookup(OriginAuto, discovery.NewID("max-ok")); err != nil {
		t.Fatalf("connection unusable after refused insert: %v", err)
	}
}

// TestFrameLengthPrefixEncoding double-checks the on-wire length field
// the raw-frame test above relies on.
func TestFrameLengthPrefixEncoding(t *testing.T) {
	b, err := (&wire.Msg{Type: wire.TStats, ReqID: 3}).Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.BigEndian.Uint32(b[:4]); int(got) != len(b)-4 {
		t.Fatalf("length prefix %d, frame body %d", got, len(b)-4)
	}
}
