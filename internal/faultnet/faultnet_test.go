package faultnet

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// echoServer accepts connections and echoes bytes back until closed.
func echoServer(t *testing.T) net.Listener {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("echo listen: %v", err)
	}
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				io.Copy(c, c)
			}()
		}
	}()
	t.Cleanup(func() { lis.Close() })
	return lis
}

func newProxy(t *testing.T, target string) *Proxy {
	t.Helper()
	p, err := Listen("127.0.0.1:0", target, t.Logf)
	if err != nil {
		t.Fatalf("faultnet listen: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func dialProxy(t *testing.T, p *Proxy) net.Conn {
	t.Helper()
	c, err := net.DialTimeout("tcp", p.Addr(), 2*time.Second)
	if err != nil {
		t.Fatalf("dial proxy: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// roundTrip writes msg and reads len(msg) bytes back.
func roundTrip(c net.Conn, msg []byte, timeout time.Duration) ([]byte, error) {
	if _, err := c.Write(msg); err != nil {
		return nil, err
	}
	c.SetReadDeadline(time.Now().Add(timeout))
	got := make([]byte, len(msg))
	_, err := io.ReadFull(c, got)
	c.SetReadDeadline(time.Time{})
	return got, err
}

func TestFaithfulRelay(t *testing.T) {
	echo := echoServer(t)
	p := newProxy(t, echo.Addr().String())
	c := dialProxy(t, p)
	msg := []byte("hello through the proxy")
	got, err := roundTrip(c, msg, 2*time.Second)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo mismatch: got %q", got)
	}
	// A chunk is counted once its write returns, which can be after the
	// echo has already come back: poll until both directions show.
	st := p.Stats()
	for deadline := time.Now().Add(2 * time.Second); (st.ForwardBytes == 0 || st.BackwardBytes == 0) && time.Now().Before(deadline); st = p.Stats() {
		time.Sleep(time.Millisecond)
	}
	if st.Accepted != 1 || st.ForwardBytes == 0 || st.BackwardBytes == 0 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

func TestLatencyDelaysDelivery(t *testing.T) {
	echo := echoServer(t)
	p := newProxy(t, echo.Addr().String())
	c := dialProxy(t, p)
	// Warm the connection without faults.
	if _, err := roundTrip(c, []byte("warm"), 2*time.Second); err != nil {
		t.Fatalf("warm: %v", err)
	}
	const lat = 60 * time.Millisecond
	p.SetFaults(Forward, Faults{Latency: lat, Jitter: 20 * time.Millisecond})
	start := time.Now()
	if _, err := roundTrip(c, []byte("slow"), 2*time.Second); err != nil {
		t.Fatalf("slow round trip: %v", err)
	}
	if d := time.Since(start); d < lat {
		t.Fatalf("round trip %v, want >= %v", d, lat)
	}
}

func TestBlackholeIsAsymmetric(t *testing.T) {
	echo := echoServer(t)
	p := newProxy(t, echo.Addr().String())
	p.SetFaults(Forward, Faults{Blackhole: true})
	c := dialProxy(t, p)
	// Forward is blackholed: the echo server never sees the bytes, so
	// nothing comes back.
	if _, err := roundTrip(c, []byte("vanish"), 150*time.Millisecond); err == nil {
		t.Fatal("expected timeout through forward blackhole")
	}
	// Heal the forward direction: traffic flows again on the SAME
	// connection (live reconfiguration, no redial).
	p.SetFaults(Forward, Faults{})
	msg := []byte("alive again")
	got, err := roundTrip(c, msg, 2*time.Second)
	if err != nil {
		t.Fatalf("after heal: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("after heal mismatch: got %q", got)
	}
}

func TestPartitionSeversAndRefuses(t *testing.T) {
	echo := echoServer(t)
	p := newProxy(t, echo.Addr().String())
	c := dialProxy(t, p)
	if _, err := roundTrip(c, []byte("pre"), 2*time.Second); err != nil {
		t.Fatalf("pre-partition: %v", err)
	}
	p.Partition()
	// The live connection is severed: reads fail promptly.
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("read on severed connection succeeded")
	}
	// New connections are reset on accept: first I/O fails fast.
	c2, err := net.DialTimeout("tcp", p.Addr(), 2*time.Second)
	if err == nil {
		defer c2.Close()
		c2.SetDeadline(time.Now().Add(2 * time.Second))
		var ioErr error
		for i := 0; i < 50 && ioErr == nil; i++ {
			_, ioErr = c2.Write([]byte("x"))
			time.Sleep(10 * time.Millisecond)
		}
		if ioErr == nil {
			_, ioErr = c2.Read(make([]byte, 1))
		}
		if ioErr == nil {
			t.Fatal("I/O through partitioned proxy succeeded")
		}
	}
	// Heal: fresh connections work again.
	p.Heal()
	c3 := dialProxy(t, p)
	if _, err := roundTrip(c3, []byte("healed"), 2*time.Second); err != nil {
		t.Fatalf("after heal: %v", err)
	}
	if st := p.Stats(); st.Severed == 0 {
		t.Fatalf("expected severed connections, stats %+v", st)
	}
}

func TestReorderSwapsAdjacentFlushes(t *testing.T) {
	// One-way sink server that records what it receives, in order.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("sink listen: %v", err)
	}
	defer lis.Close()
	recv := make(chan []byte, 1)
	go func() {
		c, err := lis.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		b, _ := io.ReadAll(c)
		recv <- b
	}()

	p := newProxy(t, lis.Addr().String())
	p.SetFaults(Forward, Faults{ReorderProb: 1.0})
	c := dialProxy(t, p)
	// Two flush-boundary writes with a gap small enough to beat the
	// held-chunk flush timer: they must arrive swapped.
	if _, err := c.Write([]byte("AAAA")); err != nil {
		t.Fatalf("write A: %v", err)
	}
	time.Sleep(5 * time.Millisecond)
	if _, err := c.Write([]byte("BBBB")); err != nil {
		t.Fatalf("write B: %v", err)
	}
	c.Close()
	select {
	case got := <-recv:
		if string(got) != "BBBBAAAA" {
			t.Fatalf("got %q, want swapped BBBBAAAA", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sink never completed")
	}
}

func TestHeldReorderChunkFlushesAlone(t *testing.T) {
	// A held chunk with no successor must still be delivered (after the
	// flush delay), or a final in-flight message would stall forever.
	echo := echoServer(t)
	p := newProxy(t, echo.Addr().String())
	p.SetFaults(Forward, Faults{ReorderProb: 1.0})
	c := dialProxy(t, p)
	msg := []byte("solo")
	got, err := roundTrip(c, msg, 3*time.Second)
	if err != nil {
		t.Fatalf("solo chunk never flushed: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("mismatch: got %q", got)
	}
}

func TestBandwidthCapThrottles(t *testing.T) {
	echo := echoServer(t)
	p := newProxy(t, echo.Addr().String())
	const bps = 64 << 10 // 64 KiB/s
	p.SetFaults(Forward, Faults{BandwidthBps: bps})
	c := dialProxy(t, p)
	payload := make([]byte, 48<<10) // 48 KiB through a 64 KiB/s pipe
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := c.Write(payload)
		done <- err
	}()
	got := make([]byte, len(payload))
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatalf("read throttled echo: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("write: %v", err)
	}
	// 48 KiB minus one burst allowance (16 KiB) at 64 KiB/s is ~500ms
	// of enforced delay; require a conservative fraction of it.
	if d := time.Since(start); d < 250*time.Millisecond {
		t.Fatalf("transfer took %v, expected throttling >= 250ms", d)
	}
}

func TestResetSeversButKeepsAccepting(t *testing.T) {
	echo := echoServer(t)
	p := newProxy(t, echo.Addr().String())
	c := dialProxy(t, p)
	if _, err := roundTrip(c, []byte("pre"), 2*time.Second); err != nil {
		t.Fatalf("pre-reset: %v", err)
	}
	p.Reset()
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("read on reset connection succeeded")
	}
	// Unlike Partition, new connections are served immediately.
	c2 := dialProxy(t, p)
	if _, err := roundTrip(c2, []byte("post"), 2*time.Second); err != nil {
		t.Fatalf("post-reset dial: %v", err)
	}
}
