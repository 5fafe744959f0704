package node

import (
	"bytes"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	discovery "discovery"
	"discovery/internal/server"
	"discovery/internal/testnet"
)

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
	cfg := oneMember(t, testnet.ReserveAddrs(t, 1)[0], t.TempDir())
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
	addrs := testnet.ReserveAddrs(t, 2)
	self, dead := addrs[0], addrs[1]
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
	cfg := oneMember(t, testnet.ReserveAddrs(t, 1)[0], t.TempDir())
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

// dirBytes reads every file under dir, keyed by its path relative to dir.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		files[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestRestartUnderOtherPlacementRefused pins what pull-only anti-entropy
// relies on: a member never holds keys its placement does not give it,
// because its data dir cannot be reopened under another replication or
// member count. Start refuses, the directory is left byte-identical, and
// the original configuration still starts on it afterwards.
func TestRestartUnderOtherPlacementRefused(t *testing.T) {
	addrs := testnet.ReserveAddrs(t, 2)
	self, other := addrs[0], addrs[1]
	dir := t.TempDir()
	cfg := Config{
		Listen:      "127.0.0.1:0",
		PeerListen:  self,
		Bootstrap:   []string{self, other}, // the other member never starts
		Replication: 1,
		Shards:      2,
		DataDir:     dir,
		DialTimeout: 100 * time.Millisecond,
		Logf:        t.Logf,
	}
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	want := dirBytes(t, dir)

	moreReplicas := cfg
	moreReplicas.Replication = 2
	fewerMembers := cfg
	fewerMembers.Bootstrap = []string{self}
	for name, c := range map[string]Config{"replication 2": moreReplicas, "one member": fewerMembers} {
		n, err := Start(c)
		if err == nil {
			n.Close()
			t.Fatalf("%s: Start succeeded on a dir created under replication 1 of 2 members", name)
		}
		if !strings.Contains(err.Error(), "created with different parameters") {
			t.Fatalf("%s: refused for another reason than the MANIFEST: %v", name, err)
		}
		got := dirBytes(t, dir)
		if len(got) != len(want) {
			t.Fatalf("%s: refused Start changed the file set: %d files, want %d", name, len(got), len(want))
		}
		for f, b := range want {
			if !bytes.Equal(got[f], b) {
				t.Fatalf("%s: refused Start changed %s", name, f)
			}
		}
	}

	n, err = Start(cfg)
	if err != nil {
		t.Fatalf("original placement after refusals: %v", err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}
