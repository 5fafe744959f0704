package discovery

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// These tests pin the shard commit combiner (Pool.submit): what a merged
// round is equivalent to, that it really merges, that nobody is kept
// leading forever, and that an uncontended submission costs nothing extra.

// waitQueued blocks until n submissions are queued behind the round
// running on shard 0 of p.
func waitQueued(t *testing.T, p *Pool, n int) {
	t.Helper()
	s := &p.shards[0]
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.cmu.Lock()
		queued := len(s.waiting)
		s.cmu.Unlock()
		if queued >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d submissions queued", queued, n)
		}
		runtime.Gosched()
	}
}

// TestCombinerMatchesLoggedOrder: goroutines submitting interleaved
// insert/delete/put/lookup batches to one shard end with the same store
// and the same per-op results as the same ops applied one at a time in
// the order the combiner logged them. Mutations hit keys every goroutine
// fights over, so the outcome depends on that order; lookups hit keys
// only their own goroutine mutates, so their place in the order is fixed
// by program order alone (lookups leave no log record to read it from).
func TestCombinerMatchesLoggedOrder(t *testing.T) {
	ov := newDurableTestOverlay(t)
	dp, _ := openDurable(t, ov, t.TempDir(), DurableConfig{Fsync: FsyncBatch})
	defer dp.Close()

	const workers, batches, perBatch = 8, 12, 5
	shared := sameShardKeys(dp.Pool, "comb-shared", 6)
	type program struct {
		ops [][]BatchOp // one slice per submission
	}
	progs := make([]program, workers)
	for g := range progs {
		private := sameShardKeys(dp.Pool, fmt.Sprintf("comb-private-%d", g), 3)
		n := 0
		for b := 0; b < batches; b++ {
			var ops []BatchOp
			for j := 0; j < perBatch; j++ {
				n++
				// Origin g tags every record with its submitter; values are
				// unique so no placement is ever an identical replay.
				val := []byte(fmt.Sprintf("g%d-op%d", g, n))
				key := shared[(g+n)%len(shared)]
				if n%3 == 0 {
					key = private[n%len(private)]
				}
				switch n % 5 {
				case 0, 1:
					ops = append(ops, BatchOp{Kind: BatchInsert, Origin: g, Key: key, Value: val})
				case 2:
					ops = append(ops, BatchOp{Kind: BatchPut, Origin: g, Node: (g*7 + n) % ov.N(), Key: key, Value: val})
				case 3:
					ops = append(ops, BatchOp{Kind: BatchDelete, Origin: g, Key: key})
				case 4:
					ops = append(ops, BatchOp{Kind: BatchLookup, Origin: g, Key: private[n%len(private)]})
				}
			}
			progs[g].ops = append(progs[g].ops, ops)
		}
	}

	var wg sync.WaitGroup
	for g := range progs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, ops := range progs[g].ops {
				dp.ExecBatch(ops)
			}
		}(g)
	}
	wg.Wait()

	// The reference applies one op at a time, in log order.
	ref, err := NewPool(ov, 4, WithSeed(1), WithMaxHops(8))
	if err != nil {
		t.Fatal(err)
	}
	flat := make([][]*BatchOp, workers) // each worker's ops in program order
	for g := range progs {
		for _, ops := range progs[g].ops {
			for i := range ops {
				if ops[i].Err != nil {
					t.Fatalf("worker %d: %v", g, ops[i].Err)
				}
				flat[g] = append(flat[g], &ops[i])
			}
		}
	}
	next := make([]int, workers)
	apply := func(got *BatchOp) {
		want := *got
		switch got.Kind {
		case BatchInsert:
			want.Insert, want.Err = ref.Insert(got.Origin, got.Key, got.Value)
		case BatchDelete:
			want.Removed, want.Err = ref.Delete(got.Origin, got.Key)
		case BatchPut:
			want.Err = ref.ImportReplica(got.Node, uint32(got.Origin), got.Key, got.Value)
		case BatchLookup:
			want.Lookup = ref.Lookup(got.Origin, got.Key)
		}
		if want.Err != nil || want.Insert != got.Insert || want.Removed != got.Removed || want.Lookup != got.Lookup {
			t.Fatalf("op differs from one-at-a-time execution in log order:\n got  %+v\n want %+v", *got, want)
		}
	}
	// runLookups applies worker g's lookups up to its next mutation.
	runLookups := func(g int) {
		for next[g] < len(flat[g]) && flat[g][next[g]].Kind == BatchLookup {
			apply(flat[g][next[g]])
			next[g]++
		}
	}
	records := 0
	err = dp.log.Replay(1, func(_ uint64, payload []byte) error {
		_, kind, node, origin, key, value, err := decodeOp(payload)
		if err != nil {
			return err
		}
		records++
		g := int(origin)
		runLookups(g)
		if next[g] == len(flat[g]) {
			return fmt.Errorf("worker %d logged more records than it submitted", g)
		}
		op := flat[g][next[g]]
		next[g]++
		wantKind := map[BatchKind]opKind{BatchInsert: opInsert, BatchDelete: opDelete, BatchPut: opPut}[op.Kind]
		if kind != wantKind || key != op.Key || !bytes.Equal(value, op.Value) || (kind == opPut && int(node) != op.Node) {
			return fmt.Errorf("worker %d's records are out of program order: logged kind %d key %v, submitted %+v", g, kind, key, *op)
		}
		apply(op)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for g := range flat {
		runLookups(g)
		if next[g] != len(flat[g]) {
			t.Fatalf("worker %d: %d of %d ops accounted for by the log", g, next[g], len(flat[g]))
		}
	}
	if got, want := exportAll(dp.Pool), exportAll(ref); !reflect.DeepEqual(got, want) {
		t.Fatal("store differs from one-at-a-time execution in log order")
	}
	t.Logf("%d records in %d appends", records, dp.base.metrics.Counter("wal.appends").Value())
}

// TestCombinerSharesAppends pins the batching itself: while one
// submitter's fsync is in flight everyone else queues, and the queue
// commits as one append. At the parent of this change every replica apply
// was its own append.
func TestCombinerSharesAppends(t *testing.T) {
	ov := newDurableTestOverlay(t)
	dp, _ := openDurable(t, ov, t.TempDir(), DurableConfig{
		Fsync:      FsyncBatch,
		WALSyncErr: func() error { time.Sleep(2 * time.Millisecond); return nil },
	})
	defer dp.Close()
	keys := sameShardKeys(dp.Pool, "comb-appends", 32)
	var wg sync.WaitGroup
	for i, k := range keys {
		wg.Add(1)
		go func(i int, k ID) {
			defer wg.Done()
			if _, err := dp.Insert(i%ov.N(), k, []byte("v")); err != nil {
				t.Error(err)
			}
		}(i, k)
	}
	wg.Wait()
	appends := dp.base.metrics.Counter("wal.appends").Value()
	records := dp.base.metrics.Counter("wal.records").Value()
	if records != uint64(len(keys)) || appends > 4 {
		t.Fatalf("%d records in %d appends, want %d records in at most 4", records, appends, len(keys))
	}
}

// TestCombinerLeadershipIsFair: under a continuous stream of submissions
// no caller is kept leading — every call returns within a few rounds of
// being made, measured in appends so the bound does not depend on the
// host's speed. A leader that drained until the queue ran dry would not
// return here until the whole stream did (a hundred-odd appends): the
// others resubmit while each round runs.
func TestCombinerLeadershipIsFair(t *testing.T) {
	ov := newDurableTestOverlay(t)
	dp, _ := openDurable(t, ov, t.TempDir(), DurableConfig{
		Fsync:      FsyncBatch,
		WALSyncErr: func() error { time.Sleep(200 * time.Microsecond); return nil },
	})
	defer dp.Close()
	appends := dp.base.metrics.Counter("wal.appends")
	const workers, calls = 8, 100
	worst := make([]uint64, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			keys := sameShardKeys(dp.Pool, fmt.Sprintf("comb-fair-%d", g), calls)
			for _, k := range keys {
				before := appends.Value()
				if _, err := dp.Insert(g, k, []byte("v")); err != nil {
					t.Error(err)
					return
				}
				if d := appends.Value() - before; d > worst[g] {
					worst[g] = d
				}
			}
		}(g)
	}
	wg.Wait()
	// A call sees the round in flight on arrival and the round that
	// carries it; the slack covers a worker descheduled between reading
	// the counter and submitting.
	for g, d := range worst {
		if d > 16 {
			t.Errorf("worker %d waited through %d appends for one insert", g, d)
		}
	}
	if a := appends.Value(); a >= workers*calls {
		t.Errorf("%d appends for %d inserts: the stream never merged, so the test exercised nothing", a, workers*calls)
	}
}

// goid returns the calling goroutine's id, from its stack header.
func goid() string {
	var buf [64]byte
	return string(bytes.Fields(buf[:runtime.Stack(buf[:], false)])[1])
}

// TestCombinerLoneSubmissionIsInline pins the uncontended path: a batch
// of one runs on the caller's goroutine (the fsync hook sees the caller's
// id) and allocates what it did before there was a combiner — nothing for
// a logged delete, the touched set for a placement, the engine's own
// routing for a lookup.
func TestCombinerLoneSubmissionIsInline(t *testing.T) {
	ov := newDurableTestOverlay(t)
	var syncedOn atomic.Value
	var record atomic.Bool
	dp, _ := openDurable(t, ov, t.TempDir(), DurableConfig{
		Fsync: FsyncBatch,
		WALSyncErr: func() error {
			if record.Load() {
				syncedOn.Store(goid())
			}
			return nil
		},
	})
	defer dp.Close()
	mem, err := NewPool(ov, 4, WithSeed(1), WithMaxHops(8))
	if err != nil {
		t.Fatal(err)
	}
	keys := sameShardKeys(dp.Pool, "comb-lone", 2)

	record.Store(true)
	if _, err := dp.Insert(1, keys[0], []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got, want := syncedOn.Load(), goid(); got != want {
		t.Fatalf("lone insert committed on goroutine %v, caller is %v", got, want)
	}
	record.Store(false)

	k := keys[1] // never inserted: the engine has nothing to walk for it
	one := make([]BatchOp, 1)
	for name, p := range map[string]*Pool{"in-memory": mem, "durable": dp.Pool} {
		direct := testing.AllocsPerRun(100, func() { p.Lookup(3, k) })
		for _, c := range []struct {
			op   BatchOp
			max  float64
			what string
		}{
			{BatchOp{Kind: BatchDelete, Origin: 3, Key: k}, 0, "delete"},
			{BatchOp{Kind: BatchPut, Origin: 3, Node: 5, Key: k, Value: []byte("v")}, 1, "put"},
			{BatchOp{Kind: BatchLookup, Origin: 3, Key: k}, direct, "lookup"},
		} {
			got := testing.AllocsPerRun(100, func() {
				one[0] = c.op
				p.ExecBatch(one)
				if one[0].Err != nil {
					t.Fatal(one[0].Err)
				}
			})
			if got > c.max {
				t.Errorf("%s pool: a lone %s allocates %v times, want at most %v", name, c.what, got, c.max)
			}
		}
	}
}
