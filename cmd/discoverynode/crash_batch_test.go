package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	discovery "discovery"
	"discovery/internal/server"
	"discovery/internal/wire"
)

// TestCrashRecoveryBatchedWrites is the batched write-ahead contract
// proven end to end: pipelined clients push bursts of inserts AND
// deletes (bursts arrive together, so shard workers execute them as
// batches sharing one multi-record WAL append and one fsync), the
// daemon is SIGKILLed mid-traffic, and after restart
//
//   - every ACKED insert whose key no delete was ever SENT for is
//     findable (no acked mutation lost mid-batch), and
//   - every ACKED delete stays deleted (no unacked or superseded state
//     falsely resurfaces from a half-applied batch).
//
// Requests in flight at the kill have unknown outcome by contract — a
// delete that was sent but never acknowledged may well have executed
// and been logged (only its ack died with the process), so keys with an
// unacknowledged delete outstanding are asserted on neither side.
func TestCrashRecoveryBatchedWrites(t *testing.T) {
	bin := buildNode(t)
	dataDir := t.TempDir()
	peer := reservePeerAddrs(t, 1)[0]
	daemon := startSingle(t, bin, peer, dataDir)
	addr := daemon.clientAddr

	const workers = 3
	const burst = 16
	const killAfterInserts = 240
	var ackedInserts atomic.Int64

	type workerState struct {
		inserted   []string // acked inserts, in order
		deleted    []string // acked deletes
		delUnknown []string // deletes sent but never acked: unknown outcome
	}
	states := make([]workerState, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := server.Dial(addr)
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			defer c.Close()
			st := &states[w]
			type pendingOp struct {
				del bool
				key string
			}
			pending := make(map[uint64]pendingOp, 2*burst)
			// On exit (the kill), whatever deletes are still pending have
			// unknown outcome; record them for the verifier to skip.
			defer func() {
				for _, op := range pending {
					if op.del {
						st.delUnknown = append(st.delUnknown, op.key)
					}
				}
			}()
			var m wire.Msg
			for round := 0; ; round++ {
				// A burst of pipelined inserts: these land on the shard
				// queues together and execute as batches.
				for i := 0; i < burst; i++ {
					key := fmt.Sprintf("bb-%d-%d-%d", w, round, i)
					id, err := c.Send(&wire.Msg{Type: wire.TInsert, Key: discovery.NewID(key), Origin: wire.OriginAuto, Value: []byte(key)})
					if err != nil {
						return
					}
					pending[id] = pendingOp{key: key}
				}
				// Every third round, also delete the first half of the
				// previous round's acked inserts in the same flush.
				var dels []string
				if round%3 == 2 && len(st.inserted) >= burst {
					dels = st.inserted[len(st.inserted)-burst : len(st.inserted)-burst/2]
					for _, key := range dels {
						id, err := c.Send(&wire.Msg{Type: wire.TDelete, Key: discovery.NewID(key), Origin: wire.OriginAuto})
						if err != nil {
							return
						}
						pending[id] = pendingOp{del: true, key: key}
					}
				}
				if err := c.Flush(); err != nil {
					return
				}
				for n := len(pending); n > 0; n-- {
					if err := c.Recv(&m); err != nil {
						return // the kill landed mid-burst; acked state stands
					}
					op, ok := pending[m.ReqID]
					if !ok {
						t.Errorf("worker %d: response for unknown reqID %d", w, m.ReqID)
						return
					}
					delete(pending, m.ReqID)
					switch m.Type {
					case wire.TInsertOK:
						st.inserted = append(st.inserted, op.key)
						ackedInserts.Add(1)
					case wire.TDeleteOK:
						st.deleted = append(st.deleted, op.key)
					default:
						t.Errorf("worker %d: %v response: %s", w, m.Type, m.ErrorText())
						return
					}
				}
			}
		}(w)
	}

	workersDone := make(chan struct{})
	go func() { wg.Wait(); close(workersDone) }()
	deadline := time.Now().Add(60 * time.Second)
	for ackedInserts.Load() < killAfterInserts {
		select {
		case <-workersDone:
			t.Fatalf("workers exited after only %d acked inserts", ackedInserts.Load())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d acked inserts after 60s", ackedInserts.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := daemon.cmd.Process.Kill(); err != nil { // SIGKILL mid-batch
		t.Fatal(err)
	}
	wg.Wait()
	daemon.cmd.Wait() //nolint:errcheck // killed on purpose

	daemon2 := startSingle(t, bin, peer, dataDir)
	c, err := server.Dial(daemon2.clientAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	inserts, deletes, lostInserts, resurrected := 0, 0, 0, 0
	for w := range states {
		st := &states[w]
		gone := make(map[string]bool, len(st.deleted))
		for _, key := range st.deleted {
			gone[key] = true
		}
		unknown := make(map[string]bool, len(st.delUnknown))
		for _, key := range st.delUnknown {
			unknown[key] = true
		}
		for _, key := range st.inserted {
			if gone[key] || unknown[key] {
				continue
			}
			inserts++
			res, err := c.Lookup(server.OriginAuto, discovery.NewID(key))
			if err != nil {
				t.Fatalf("lookup %s: %v", key, err)
			}
			if !res.Found {
				lostInserts++
				t.Errorf("acked insert %s not findable after batched crash recovery", key)
			}
		}
		for _, key := range st.deleted {
			deletes++
			res, err := c.Lookup(server.OriginAuto, discovery.NewID(key))
			if err != nil {
				t.Fatalf("lookup deleted %s: %v", key, err)
			}
			if res.Found {
				resurrected++
				t.Errorf("acked delete %s resurfaced after batched crash recovery", key)
			}
		}
	}
	t.Logf("verified %d acked inserts (%d lost) and %d acked deletes (%d resurfaced) after SIGKILL", inserts, lostInserts, deletes, resurrected)
	if inserts < killAfterInserts/2 || deletes == 0 {
		t.Fatalf("thin coverage: %d inserts, %d deletes verified — test did not exercise mixed batches", inserts, deletes)
	}
}
