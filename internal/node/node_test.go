package node

import (
	"net"
	"runtime"
	"testing"
	"time"

	discovery "discovery"
	"discovery/internal/server"
)

// freeAddr reserves a loopback address by binding and releasing an
// ephemeral port. Peer addresses are membership identity, so a member's
// must be known before it starts.
func freeAddr(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	return lis.Addr().String()
}

// oneMember is a durable single-member configuration on dir.
func oneMember(t *testing.T, peer, dir string) Config {
	return Config{
		Listen:      "127.0.0.1:0",
		PeerListen:  peer,
		Bootstrap:   []string{peer},
		Replication: 1,
		Shards:      2,
		DataDir:     dir,
		Logf:        t.Logf,
	}
}

// waitGoroutines fails unless the goroutine count falls back to want
// within 5s, printing every goroutine's stack if it does not.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > want; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines, want <= %d:\n%s", runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRestartOnSameDirKeepsValue: a value inserted through the client
// protocol survives Close and a fresh Start on the same data directory.
func TestRestartOnSameDirKeepsValue(t *testing.T) {
	cfg := oneMember(t, freeAddr(t), t.TempDir())
	key := discovery.NewID("restart-key")

	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := server.Dial(n.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(server.OriginAuto, key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	n, err = Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	c, err = server.Dial(n.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Lookup(server.OriginAuto, key)
	if err != nil || !res.Found {
		t.Fatalf("after restart: found=%v err=%v", res.Found, err)
	}
}

// TestCloseWithDeadPeerIsPrompt: a member whose only peer never starts
// keeps failing its periodic anti-entropy passes; Close must still stop
// the loop and drain promptly.
func TestCloseWithDeadPeerIsPrompt(t *testing.T) {
	self, dead := freeAddr(t), freeAddr(t)
	n, err := Start(Config{
		Listen:           "127.0.0.1:0",
		PeerListen:       self,
		Bootstrap:        []string{self, dead},
		Replication:      2,
		DialTimeout:      100 * time.Millisecond,
		AntiEntropy:      true,
		AntiEntropyEvery: 50 * time.Millisecond,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // several failing passes
	closed := make(chan error, 1)
	go func() { closed <- n.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return within 2s")
	}
}

// TestStartUnwindsOnBindFailure: when the client address is taken,
// Start fails after the pool, WAL and peer runtime are already up. It
// must close all of them — no goroutine left behind, the data directory
// free for the next Start.
func TestStartUnwindsOnBindFailure(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	cfg := oneMember(t, freeAddr(t), t.TempDir())
	cfg.SnapshotEvery = 1 // a background snapshotter the unwind must stop
	before := runtime.NumGoroutine()

	cfg.Listen = taken.Addr().String()
	if n, err := Start(cfg); err == nil {
		n.Close()
		t.Fatal("Start succeeded on a bound client address")
	}
	waitGoroutines(t, before)

	cfg.Listen = "127.0.0.1:0"
	n, err := Start(cfg)
	if err != nil {
		t.Fatalf("second Start on the same dir: %v", err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, before)
}
