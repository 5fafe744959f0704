package chaos

import (
	"runtime"
	"testing"
	"time"
)

// TestChaosMatrix runs every scenario against a 3-member,
// replication-3 cluster of internal/node members in this process, whose
// peer and client links are all interposed by internal/faultnet
// proxies. Each cell is its own subtest, so a red cell is identifiable
// by name in CI output. Under -short only the Short subset runs (the PR
// gate); the full matrix — hard/asymmetric partitions, latency/jitter,
// frame reordering, bandwidth caps, connection-reset storms, flapping
// membership, rolling restarts, and WAL fsync failure — runs on push.
//
// Every cell asserts the same four invariants (see the package doc):
// acked-insert durability, no false not-found for settled keys,
// explicit below-quorum write errors where a quorum is severed, and
// full replica convergence after heal. It then asserts a fifth: the
// orderly shutdown at the end of the cell leaves no goroutine behind.
func TestChaosMatrix(t *testing.T) {
	for _, sc := range Matrix {
		if testing.Short() && !sc.Short {
			continue
		}
		t.Run(sc.Name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			Run(t, sc)
			checkNoLeak(t, before)
		})
	}
}

// checkNoLeak fails unless the goroutine count returns to before within
// 5s, printing every goroutine's stack if it does not.
func checkNoLeak(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			buf := make([]byte, 4<<20)
			t.Fatalf("%d goroutines still running after the cell, %d before it:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
