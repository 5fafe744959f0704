package main

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	discovery "discovery"
	"discovery/internal/server"
	"discovery/internal/testnet"
)

// startSingle launches a one-member cluster (-replication 1) with its
// durable store in dataDir: every key is this node's, so nothing is
// forwarded or replicated and the test exercises the WAL and recovery
// alone.
func startSingle(t *testing.T, bin, peerAddr, dataDir string) *nodeProc {
	return startNode(t, bin, peerAddr, []string{peerAddr}, dataDir, "-replication", "1")
}

// TestCrashRecovery is the end-to-end durability proof: drive a real
// discoverynode process over loopback, SIGKILL it mid-traffic, restart it
// on the same data directory, and verify every insert that was
// acknowledged before the kill is findable. Run under -race in CI (the
// race detector instruments this test binary's client side; the daemon
// is a separate process).
func TestCrashRecovery(t *testing.T) {
	bin := buildNode(t)
	dataDir := t.TempDir()
	peer := testnet.ReserveAddrs(t, 1)[0]

	daemon := startSingle(t, bin, peer, dataDir)
	addr := daemon.clientAddr

	// Concurrent inserters record every acknowledged key. The main
	// goroutine SIGKILLs the daemon once enough acks are in, while the
	// inserters are still pushing — so the kill lands mid-traffic.
	const inserters = 4
	const killAfter = 300
	var acked atomic.Int64
	ackedKeys := make([][]string, inserters)
	var wg sync.WaitGroup
	for w := 0; w < inserters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := server.Dial(addr)
			if err != nil {
				t.Errorf("inserter %d: %v", w, err)
				return
			}
			defer c.Close()
			for i := 0; ; i++ {
				key := fmt.Sprintf("crash-%d-%d", w, i)
				if _, err := c.Insert(server.OriginAuto, discovery.NewID(key), []byte(key)); err != nil {
					return // the kill landed; everything before it was acked
				}
				ackedKeys[w] = append(ackedKeys[w], key)
				acked.Add(1)
			}
		}(w)
	}
	// Wait for enough acks, but bail out if the inserters die early (a
	// failed dial, a dead daemon) instead of spinning until the package
	// timeout.
	insertersDone := make(chan struct{})
	go func() { wg.Wait(); close(insertersDone) }()
	deadline := time.Now().Add(60 * time.Second)
	for acked.Load() < killAfter {
		select {
		case <-insertersDone:
			t.Fatalf("inserters exited after only %d acks", acked.Load())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d acks after 60s", acked.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := daemon.cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no final snapshot
		t.Fatal(err)
	}
	wg.Wait()
	daemon.cmd.Wait() //nolint:errcheck // killed on purpose

	// Restart on the same directory: recovery must replay the log over
	// whatever snapshots the background snapshotter managed to land.
	daemon2 := startSingle(t, bin, peer, dataDir)

	c, err := server.Dial(daemon2.clientAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	total, lost := 0, 0
	for w := range ackedKeys {
		for _, key := range ackedKeys[w] {
			total++
			res, err := c.Lookup(server.OriginAuto, discovery.NewID(key))
			if err != nil {
				t.Fatalf("lookup %s: %v", key, err)
			}
			if !res.Found {
				lost++
				t.Errorf("acked key %s not findable after crash recovery", key)
			}
		}
	}
	t.Logf("verified %d acked inserts after SIGKILL (%d lost)", total, lost)
	if total < killAfter {
		t.Fatalf("only %d inserts were acked before the kill; test did not exercise mid-traffic crash", total)
	}

	// The restarted daemon's /metrics must expose what recovery did: the
	// SIGKILL skipped the final snapshot, so snapshots plus replayed WAL
	// records account for a nonzero amount of restored state.
	resp, err := http.Get("http://" + daemon2.metricsAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape restarted daemon: HTTP %d, err %v", resp.StatusCode, err)
	}
	recovered := 0.0
	for _, g := range []string{"recovery_snapshot_entries", "recovery_wal_records_replayed"} {
		re := regexp.MustCompile(`(?m)^` + g + ` (\d+)$`)
		m := re.FindSubmatch(body)
		if m == nil {
			t.Fatalf("restarted daemon /metrics is missing %s:\n%s", g, body)
		}
		v, _ := strconv.ParseFloat(string(m[1]), 64)
		recovered += v
	}
	if recovered == 0 {
		t.Fatal("restarted daemon reports zero recovered state despite acked inserts before SIGKILL")
	}
	t.Logf("restart scrape: %v entries+records recovered", recovered)

	// A graceful SIGTERM must drain cleanly and exit 0 (containers stop
	// daemons this way).
	if err := daemon2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := daemon2.cmd.Wait(); err != nil {
		t.Fatalf("daemon exit after SIGTERM: %v", err)
	}
}
