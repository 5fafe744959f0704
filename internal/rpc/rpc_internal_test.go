package rpc

import (
	"bufio"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"discovery/internal/batchio"
	"discovery/internal/metrics"
	"discovery/internal/wire"
)

// sinkConn is a peer that reads everything at once: writes succeed and
// are discarded, and n counts their bytes. A connection writer runs
// against it without a socket.
type sinkConn struct {
	net.Conn
	n atomic.Int64
}

func (c *sinkConn) Write(b []byte) (int, error) {
	c.n.Add(int64(len(b)))
	return len(b), nil
}

func (*sinkConn) SetWriteDeadline(time.Time) error { return nil }

// TestCollectOutZeroAllocs pins the outbound drain path's allocation
// discipline: the exact producer/consumer cycle between Go (encode into a
// pooled buffer, enqueue) and the connection writer (collect into reused
// writev slots, write, recycle) allocates nothing once the pool and the
// writer's slices are warm. This is the out-queue twin of
// TestResponsePathZeroAllocs.
func TestCollectOutZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool does not cache under the race detector")
	}
	const burst = 8
	cs := &connState{out: make(chan frame, burst), dead: make(chan struct{})}
	flushed := make(chan int, burst)
	done := make(chan struct{})
	go func() {
		defer close(done)
		batchio.WriteLoop(&sinkConn{}, cs.out, cs.dead, time.Second, frameBytes, putFrame,
			func(err error) { t.Errorf("write: %v", err) },
			func(batch []frame) { flushed <- len(batch) }, nil)
	}()
	defer func() { cs.kill(); <-done }()
	body := []byte("\x00\x00\x00\x0d\x01\x00\x00\x00\x00\x00\x00\x00\x07body")

	cycle := func() {
		for i := 0; i < burst; i++ {
			f := frame{bp: frames.Get().(*[]byte)}
			*f.bp = append((*f.bp)[:0], body...)
			cs.out <- f
		}
		for n := 0; n < burst; {
			n += <-flushed
		}
	}
	cycle() // warm the buffer pool and the writer's slices

	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("out-queue drain allocates %.1f per %d-frame burst, want 0", allocs, burst)
	}
}

// TestWriteLoopCoalescesQueuedFrames proves frames-per-write > 1
// deterministically: frames queued before the writer starts must flush
// in ONE vectored write, counted by the Writes stats. This pins the
// syscall shape itself; the p2p e2e test proves the ratio emerges under
// live pipelining too.
func TestWriteLoopCoalescesQueuedFrames(t *testing.T) {
	reg := metrics.NewRegistry()
	st := &batchio.Stats{Writes: reg.Counter("writes"), Frames: reg.Counter("frames")}
	x := New(Config{Name: "test", Logf: t.Logf, Writes: st})
	defer x.Close()

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		nc, err := lis.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		buf := make([]byte, 64<<10)
		for {
			if _, err := nc.Read(buf); err != nil {
				return
			}
		}
	}()
	nc, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}

	c := x.Conn(lis.Addr().String(), lis.Addr().String(), nil)
	cs := &connState{nc: nc, out: make(chan frame, 64), dead: make(chan struct{})}

	const queued = 32
	for i := 0; i < queued; i++ {
		b := []byte("frame-bytes")
		cs.out <- frame{bp: &b}
	}
	done := make(chan struct{})
	go func() { defer close(done); c.writeLoop(cs) }()

	deadline := time.Now().Add(5 * time.Second)
	for {
		writes, frames := st.Writes.Value(), st.Frames.Value()
		if frames == queued {
			if writes != 1 {
				t.Fatalf("%d pre-queued frames took %d writes, want 1 vectored write", queued, writes)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("writer flushed %d of %d frames", frames, queued)
		}
		time.Sleep(time.Millisecond)
	}
	c.teardown(cs)
	<-done
}

// TestCallTimeoutLateReply audits the timed-out call path end to end: a
// reply that lands AFTER the sweeper deleted its pending entry must be
// dropped cleanly — no stray delivery, no pending-map leak, no connection
// teardown — and the connection (plus the outbound frame pool) must keep
// serving subsequent calls without a redial.
func TestCallTimeoutLateReply(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	reg := metrics.NewRegistry()
	dials := reg.Counter("dials")
	x := New(Config{Name: "test", CallTimeout: 150 * time.Millisecond, Logf: t.Logf, Dials: dials})
	defer x.Close()
	// Count trips through the pool's allocator: if the request-frame
	// buffers round-trip (Get -> write -> Put), steady sequential calls
	// reuse one buffer and the allocator runs a bounded number of times.
	var fresh atomic.Int64
	defer func(prev func() any) { frames.New = prev }(frames.New)
	frames.New = func() any {
		fresh.Add(1)
		b := make([]byte, 0, 512)
		return &b
	}
	c := x.Conn(lis.Addr().String(), lis.Addr().String(), nil)

	// Stub peer: the FIRST request's reply is withheld until released
	// (well past the call timeout); every later request is answered
	// immediately.
	release := make(chan struct{})
	lateSent := make(chan struct{})
	go func() {
		nc, err := lis.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		br := bufio.NewReader(nc)
		var scratch []byte
		first := true
		for {
			body, err := wire.ReadFrame(br, &scratch)
			if err != nil {
				return
			}
			var m wire.Msg
			if err := m.Decode(body); err != nil {
				return
			}
			reply := wire.Msg{Type: wire.TPeerProbeOK, ReqID: m.ReqID, Cluster: m.Cluster}
			frame, err := reply.Append(nil)
			if err != nil {
				return
			}
			if first {
				first = false
				go func() {
					<-release
					nc.Write(frame) //nolint:errcheck // test stub
					close(lateSent)
				}()
				continue
			}
			if _, err := nc.Write(frame); err != nil {
				return
			}
		}
	}()

	probe := func() *wire.Msg { return &wire.Msg{Type: wire.TPeerProbe, Cluster: 7} }
	if _, err := c.Call(probe()); err == nil || !strings.Contains(err.Error(), "no reply within") {
		t.Fatalf("withheld reply did not time out: %v", err)
	}
	if leaked := x.Pending(); leaked != 0 {
		t.Fatalf("%d pending entries leaked after the timeout", leaked)
	}

	// Deliver the late reply, then prove the connection survived it: the
	// reader must discard the orphan (no pending entry matches) without
	// tearing the connection down or mis-delivering it to the next call.
	close(release)
	<-lateSent
	for i := 0; i < 20; i++ {
		resp, err := c.Call(probe())
		if err != nil {
			t.Fatalf("call %d after the late reply: %v", i, err)
		}
		if resp.Type != wire.TPeerProbeOK {
			t.Fatalf("call %d got %v, want TPeerProbeOK", i, resp.Type)
		}
	}
	if got := dials.Value(); got != 1 {
		t.Fatalf("%d dials; the late reply should not cost a reconnect", got)
	}
	// Pool round-trip: 21 sequential calls needed far fewer fresh
	// buffers (the race detector disables sync.Pool caching, so the
	// bound only holds in a normal build).
	if !raceEnabled {
		if got := fresh.Load(); got > 3 {
			t.Fatalf("allocator built %d frame buffers over 21 sequential calls; pooled buffers are not round-tripping", got)
		}
	}
}

// TestCollectOutDeath pins the writer's shutdown contract: a frame that
// raced in just before the connection died is still written and
// recycled — never stranded — and the dead, empty queue then ends the
// writer.
func TestCollectOutDeath(t *testing.T) {
	cs := &connState{out: make(chan frame, 4), dead: make(chan struct{})}
	b := []byte("frame")
	cs.out <- frame{bp: &b}
	cs.kill()

	var sink sinkConn
	recycled := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		batchio.WriteLoop(&sink, cs.out, cs.dead, time.Second, frameBytes,
			func(frame) { recycled++ }, func(err error) { t.Errorf("write: %v", err) }, nil, nil)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the writer blocked on a dead connection")
	}
	if sink.n.Load() != int64(len(b)) || recycled != 1 {
		t.Fatalf("racing frame at death: %d bytes written, %d recycled; want %d and 1", sink.n.Load(), recycled, len(b))
	}
}

// TestSeveredConnectionCompletesEachCallOnce: the reader, the teardown
// and the sweeper can all reach a call whose connection is cut; exactly
// one of them may finish it.
func TestSeveredConnectionCompletesEachCallOnce(t *testing.T) {
	const inflight = 64
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		nc, err := lis.Accept()
		if err != nil {
			return
		}
		defer nc.Close() // cut once every request has been read
		br := bufio.NewReader(nc)
		var scratch []byte
		for i := 0; i < inflight; i++ {
			if _, err := wire.ReadFrame(br, &scratch); err != nil {
				return
			}
		}
	}()
	x := New(Config{Name: "test", CallTimeout: 200 * time.Millisecond, Logf: t.Logf})
	c := x.Conn(lis.Addr().String(), lis.Addr().String(), nil)
	var fired [inflight]atomic.Int32
	finished := make(chan struct{}, 2*inflight)
	for i := range fired {
		c.Go(&wire.Msg{Type: wire.TPeerProbe}, func(_ *wire.Msg, err error) {
			if err == nil {
				t.Errorf("call %d completed without an error", i)
			}
			fired[i].Add(1)
			finished <- struct{}{}
		})
	}
	for i := 0; i < inflight; i++ {
		select {
		case <-finished:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d calls never completed", inflight-i, inflight)
		}
	}
	// Give the sweeper a full period over the emptied map, then close:
	// neither may complete anything a second time.
	time.Sleep(300 * time.Millisecond)
	x.Close()
	for i := range fired {
		if n := fired[i].Load(); n != 1 {
			t.Fatalf("call %d completed %d times", i, n)
		}
	}
	if n := x.Pending(); n != 0 {
		t.Fatalf("%d calls still pending", n)
	}
}
