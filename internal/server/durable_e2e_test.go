package server

import (
	"fmt"
	"sync"
	"testing"

	discovery "discovery"
)

// newDurableTestServer is newTestServer backed by a durable pool on dir
// (batch fsync). Cleanup closes the server, then the store.
func newDurableTestServer(t testing.TB, dir string, shards, queueDepth int) (*Server, string, *discovery.DurablePool) {
	t.Helper()
	ov, err := discovery.CompleteOverlay(256, 1)
	if err != nil {
		t.Fatal(err)
	}
	dp, _, err := discovery.OpenDurablePool(ov, shards, discovery.DurableConfig{
		Dir:   dir,
		Fsync: discovery.FsyncBatch,
	}, discovery.WithSeed(1), discovery.WithMaxHops(8))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Pool: dp.Pool, QueueDepth: queueDepth, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		dp.Close()
	})
	return srv, addr.String(), dp
}

// TestE2EDurableDrainAndRestart drives a durable daemon with concurrent
// clients, closes it gracefully (the server drains its shard queues,
// then the store is sealed), restarts on the same directory, and
// verifies every key is still findable over the wire. Run under -race
// in CI.
func TestE2EDurableDrainAndRestart(t *testing.T) {
	const clients, keysPer = 4, 16
	dir := t.TempDir()
	srv, addr, dp := newDurableTestServer(t, dir, 4, 16)

	key := func(c, i int) string { return fmt.Sprintf("dur-%d-%d", c, i) }
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
				if _, err := c.Insert(OriginAuto, discovery.NewID(key(cl, i)), []byte(key(cl, i))); err != nil {
					t.Errorf("client %d insert %d: %v", cl, i, err)
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	srv.Close()
	if err := dp.Close(); err != nil {
		t.Fatalf("store close: %v", err)
	}

	// Second daemon, same directory: a clean shutdown snapshotted every
	// shard, so recovery restores state without replaying the log.
	_, addr2, _ := newDurableTestServer(t, dir, 4, 16)
	c, err := Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for cl := 0; cl < clients; cl++ {
		for i := 0; i < keysPer; i++ {
			res, err := c.Lookup((cl*37+i)%256, discovery.NewID(key(cl, i)))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Found {
				t.Errorf("key %s lost across restart", key(cl, i))
			}
		}
	}
	// Mutations keep working after recovery.
	if _, err := c.Insert(OriginAuto, discovery.NewID("post-restart"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if res, err := c.Lookup(OriginAuto, discovery.NewID("post-restart")); err != nil || !res.Found {
		t.Fatalf("post-restart insert not findable: %v %v", res, err)
	}
}
