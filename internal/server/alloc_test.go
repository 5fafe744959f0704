package server

import (
	"testing"

	"discovery/internal/wire"
)

// This gate pins the allocation discipline of the shard workers' batch
// dequeue loop. The response path's twin, TestResponsePathZeroAllocs,
// lives with the served connection in internal/rpc. The engine's own
// per-request allocations are out of scope here.

// TestBatchDequeueZeroAllocs pins the shard workers' drain loop: pulling
// a full batch of queued tasks into the reused task slice allocates
// nothing.
func TestBatchDequeueZeroAllocs(t *testing.T) {
	const batch = 32
	q := make(chan task, batch)
	var tasks []task
	seed := task{typ: wire.TLookup, reqID: 7, origin: 3}

	fill := func() {
		for i := 0; i < batch; i++ {
			q <- seed
		}
	}
	fill()
	if ok, _ := collectBatch(q, &tasks, batch); !ok || len(tasks) != batch {
		t.Fatalf("warm drain collected %d tasks", len(tasks))
	}

	allocs := testing.AllocsPerRun(200, func() {
		fill()
		ok, closed := collectBatch(q, &tasks, batch)
		if !ok || closed || len(tasks) != batch {
			t.Fatal("drain failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("batch dequeue allocates %.1f per %d-task batch, want 0", allocs, batch)
	}
}
