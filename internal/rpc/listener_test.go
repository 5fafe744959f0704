package rpc

import (
	"io"
	"net"
	"testing"
	"time"

	"discovery/internal/batchio"
	"discovery/internal/wire"
)

// TestResponsePathZeroAllocs drives Send → the served connection's writer
// → recycle, the exact producer/consumer cycle between a responder and a
// served connection, and requires zero allocations once the pool and the
// writer's slices are warm. The served half of both listeners runs this
// path. The frames are traced, so the Flushed hook's path runs too.
func TestResponsePathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool does not cache under the race detector")
	}
	const burst = 8
	flushed := make(chan struct{}, burst)
	c := newServedConn(&sinkConn{}, &ServeConfig{Logf: t.Logf,
		Flushed: func(uint64, int64, int64, int) { flushed <- struct{}{} }})
	done := make(chan struct{})
	go func() { defer close(done); c.writeLoop() }()
	defer func() { close(c.out); <-done }()
	m := wire.Msg{Type: wire.TLookupOK, ReqID: 42, Lookup: wire.LookupReply{Found: true, FirstReplyHops: 2, Replies: 1}}

	cycle := func() {
		for i := 0; i < burst; i++ {
			c.Send(&m, 1)
		}
		for i := 0; i < burst; i++ {
			<-flushed
		}
	}
	cycle() // warm the buffer pool and the writer's slices

	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("response path allocates %.1f per %d-frame burst, want 0", allocs, burst)
	}
}

// TestWriteLoopShedsStalledReader serves one connection over a net.Pipe
// (whose writes block until the peer reads, and which honors write
// deadlines) with a stub handler that answers each request with a
// burst of responses: a peer that never reads must trip the write
// timeout, get its socket closed, and stop blocking responders, and the
// connection must then drain and finish.
func TestWriteLoopShedsStalledReader(t *testing.T) {
	srvSide, cliSide := net.Pipe()
	defer cliSide.Close()
	severed := make(chan struct{}, 4)
	cfg := ServeConfig{Name: "test", WriteTimeout: 100 * time.Millisecond, Logf: t.Logf,
		Severed: func() { severed <- struct{}{} }}
	const burst = 4 * batchio.MaxFrames // more than the out-queue holds
	sent := make(chan struct{})
	stub := func(c *ServedConn) func([]byte) bool {
		return func([]byte) bool {
			c.Add()
			go func() {
				defer c.Done()
				for i := 0; i < burst; i++ {
					c.Send(&wire.Msg{Type: wire.TDeleteOK, ReqID: uint64(i)}, 0)
				}
				close(sent)
			}()
			return true
		}
	}
	var l Listener
	l.served.Add(1)
	go l.serve(newServedConn(srvSide, &cfg), stub)

	req, err := (&wire.Msg{Type: wire.TStats, ReqID: 1}).Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cliSide.Write(req); err != nil {
		t.Fatal(err)
	}

	// The peer never reads: the first write must give up within the
	// deadline, and the responder must get through its whole burst.
	select {
	case <-sent:
	case <-time.After(5 * time.Second):
		t.Fatal("responder blocked; a stalled reader would wedge its shard")
	}
	select {
	case <-severed:
	case <-time.After(5 * time.Second):
		t.Fatal("write timeout never tripped")
	}

	// The severed socket ends the reader, so the connection drains and
	// finishes on its own.
	done := make(chan struct{})
	go func() { l.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("severed connection never finished")
	}
	if len(severed) != 0 {
		t.Fatalf("Severed fired %d extra times", len(severed))
	}

	// The server closed its side, so the peer sees EOF rather than a
	// silent hang.
	cliSide.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if _, err := io.ReadAll(cliSide); err != nil && err != io.EOF && err != io.ErrClosedPipe {
		t.Logf("peer read ended with %v (acceptable: connection severed)", err)
	}
}

// TestCloseDoesNotWaitForWedgedWriter pins the shutdown contract the
// member's drain relies on: with a peer that has stopped reading and a
// writer blocked in a write under the default 30 s deadline, Close and
// Wait still return promptly, after the responder has finished.
func TestCloseDoesNotWaitForWedgedWriter(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var l Listener
	if !l.Bind(lis) {
		t.Fatal("Bind refused a fresh listener")
	}
	answered := make(chan struct{})
	stub := func(c *ServedConn) func([]byte) bool {
		return func([]byte) bool {
			c.Add()
			go func() {
				defer c.Done()
				// Far more than the socket buffers hold.
				for i := 0; i < 256; i++ {
					c.Send(&wire.Msg{Type: wire.TError, ReqID: uint64(i), Value: make([]byte, 60<<10)}, 0)
				}
				close(answered)
			}()
			return true
		}
	}
	go l.Serve(ServeConfig{Name: "test", Logf: t.Logf}, stub) //nolint:errcheck // returns nil after Close

	nc, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	req, err := (&wire.Msg{Type: wire.TStats, ReqID: 1}).Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(req); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // let the writer fill the socket and block
	select {
	case <-answered:
		t.Fatal("responder finished against a peer that never reads; the writer is not wedged")
	default:
	}

	start := time.Now()
	l.Close()
	done := make(chan struct{})
	go func() { l.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close+Wait waited on the wedged writer's deadline")
	}
	select {
	case <-answered:
	default:
		t.Fatal("Wait returned before the in-flight responder finished")
	}
	t.Logf("Close+Wait took %v", time.Since(start))
}
