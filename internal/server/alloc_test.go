package server

import (
	"net"
	"testing"

	discovery "discovery"
	"discovery/internal/batchio"
	"discovery/internal/wire"
)

// These gates pin the PR-1 allocation discipline on the two batched hot
// paths this layer owns: the response path (encode into a pooled buffer,
// enqueue, coalesce into writev slots, recycle) and the shard workers'
// batch dequeue loop. The engine's own per-request allocations are out
// of scope here — these tests prove the serving layer adds none.

// TestResponsePathZeroAllocs drives send → Collect → Put, the exact
// producer/consumer cycle between a shard worker and a connection
// writer, and requires zero allocations once pool and slices are warm.
func TestResponsePathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool does not cache under the race detector")
	}
	ov, err := discovery.CompleteOverlay(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := discovery.NewPool(ov, 1, discovery.WithMaxHops(4))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Pool: pool, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const burst = 8
	c := &conn{out: make(chan outFrame, burst), dead: make(chan struct{})}
	m := wire.Msg{Type: wire.TLookupOK, ReqID: 42, Lookup: wire.LookupReply{Found: true, FirstReplyHops: 2, Replies: 1}}
	var slots []outFrame
	var bufs net.Buffers

	cycle := func() {
		for i := 0; i < burst; i++ {
			s.send(c, &m, 0)
		}
		slots = slots[:0]
		bufs = bufs[:0]
		if !batchio.CollectFunc(c.out, nil, &slots, &bufs, func(f outFrame) []byte { return *f.bp }) || len(slots) != burst {
			t.Fatal("collect failed")
		}
		for _, f := range slots {
			s.bufs.Put(f.bp)
		}
	}
	cycle() // warm the buffer pool and the coalesce slices

	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("response path allocates %.1f per %d-frame batch, want 0", allocs, burst)
	}
}

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
