package discovery

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func newTestPool(t *testing.T, shards int, seed int64) *Pool {
	t.Helper()
	ov, err := RandomOverlay(600, 20, seed)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPool(ov, shards, WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPoolConcurrentInsertLookup(t *testing.T) {
	const keys, workers = 240, 8
	ov, err := CompleteOverlay(256, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPool(ov, 4)
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent inserts of distinct keys from many goroutines.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < keys; i += workers {
				key := NewID(fmt.Sprintf("key-%d", i))
				res, err := p.Insert(i%p.Overlay().N(), key, []byte(fmt.Sprintf("value-%d", i)))
				if err != nil {
					t.Errorf("key %d insert: %v", i, err)
				}
				if res.Replicas == 0 {
					t.Errorf("key %d stored no replicas", i)
				}
			}
		}(w)
	}
	wg.Wait()

	// Concurrent lookups: every inserted key must be findable, with its
	// payload.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < keys; i += workers {
				key := NewID(fmt.Sprintf("key-%d", i))
				res := p.Lookup((i*31)%p.Overlay().N(), key)
				if !res.Found {
					t.Errorf("key %d not found", i)
					continue
				}
				v, ok := p.Value(key)
				if !ok || string(v) != fmt.Sprintf("value-%d", i) {
					t.Errorf("key %d payload = %q, %v", i, v, ok)
				}
			}
		}(w)
	}
	wg.Wait()

	st := p.Stats()
	if st.Inserts != keys || st.Lookups != keys {
		t.Fatalf("stats count inserts=%d lookups=%d, want %d each", st.Inserts, st.Lookups, keys)
	}
	if st.LookupsFound != keys {
		t.Fatalf("stats found=%d, want %d", st.LookupsFound, keys)
	}
	if len(st.PerShard) != 4 {
		t.Fatalf("per-shard stats: %d entries", len(st.PerShard))
	}
	var sum uint64
	for _, ss := range st.PerShard {
		sum += ss.Requests
	}
	if sum != st.Requests {
		t.Fatalf("per-shard requests sum %d != total %d", sum, st.Requests)
	}
}

// TestPoolDeterminism pins that a fixed shard count reproduces identical
// per-operation results when each shard sees the same ops in the same
// order.
func TestPoolDeterminism(t *testing.T) {
	run := func() ([]InsertResult, []LookupResult) {
		p := newTestPool(t, 3, 7)
		var ins []InsertResult
		var lks []LookupResult
		for i := 0; i < 60; i++ {
			key := NewID(fmt.Sprintf("det-%d", i))
			res, err := p.Insert(i*7%p.Overlay().N(), key, []byte("v"))
			if err != nil {
				t.Fatal(err)
			}
			ins = append(ins, res)
		}
		for i := 0; i < 60; i++ {
			key := NewID(fmt.Sprintf("det-%d", i))
			lks = append(lks, p.Lookup(i*13%p.Overlay().N(), key))
		}
		return ins, lks
	}
	ins1, lks1 := run()
	ins2, lks2 := run()
	for i := range ins1 {
		if ins1[i] != ins2[i] {
			t.Fatalf("insert %d differs across runs: %+v vs %+v", i, ins1[i], ins2[i])
		}
	}
	for i := range lks1 {
		if lks1[i] != lks2[i] {
			t.Fatalf("lookup %d differs across runs: %+v vs %+v", i, lks1[i], lks2[i])
		}
	}
}

func TestPoolShardRoutingStable(t *testing.T) {
	p := newTestPool(t, 5, 1)
	for i := 0; i < 100; i++ {
		key := NewID(fmt.Sprintf("route-%d", i))
		s := p.ShardOf(key)
		if s < 0 || s >= p.NumShards() {
			t.Fatalf("shard %d out of range", s)
		}
		if again := p.ShardOf(key); again != s {
			t.Fatalf("shard mapping unstable: %d then %d", s, again)
		}
		o := p.AutoOrigin(key)
		if o < 0 || o >= p.Overlay().N() {
			t.Fatalf("auto origin %d out of range", o)
		}
	}
}

// TestPoolResolveOrigin pins the one admission rule every keyed request
// path shares: the all-ones sentinel picks AutoOrigin, an in-range
// origin passes through, and anything else is refused.
func TestPoolResolveOrigin(t *testing.T) {
	p := newTestPool(t, 2, 1)
	key := NewID("resolve")
	n := uint32(p.Overlay().N())
	if o, err := p.ResolveOrigin(key, ^uint32(0)); err != nil || int(o) != p.AutoOrigin(key) {
		t.Fatalf("auto origin: %d, %v; want %d", o, err, p.AutoOrigin(key))
	}
	if o, err := p.ResolveOrigin(key, n-1); err != nil || o != n-1 {
		t.Fatalf("last origin: %d, %v", o, err)
	}
	if _, err := p.ResolveOrigin(key, n); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("origin %d of %d admitted: %v", n, n, err)
	}
}

func TestPoolDelete(t *testing.T) {
	p := newTestPool(t, 2, 3)
	key := NewID("deletable")
	const origin = 17
	if res, err := p.Insert(origin, key, []byte("v")); err != nil || res.Replicas == 0 {
		t.Fatalf("insert stored nothing (err=%v)", err)
	}
	// A stranger may not delete someone else's object.
	if removed, err := p.Delete(origin+1, key); err != nil || removed != 0 {
		t.Fatalf("foreign delete removed %d replicas (err=%v)", removed, err)
	}
	if removed, err := p.Delete(origin, key); err != nil || removed != 1 {
		t.Fatalf("owner delete removed %d entries (err=%v)", removed, err)
	}
	if _, ok := p.Value(key); ok || p.ReplicaCount() != 0 {
		t.Fatalf("entry survived its owner's delete (%d stored)", p.ReplicaCount())
	}
}

// TestPoolOverwriteReplacesValue pins one entry per key: a second insert
// replaces both value and origin, so the delete right passes to the new
// origin and the old one can no longer remove the entry.
func TestPoolOverwriteReplacesValue(t *testing.T) {
	p := newTestPool(t, 2, 3)
	k := NewID("overwritten")
	for origin, v := range []string{"v1", "v2"} {
		if _, err := p.Insert(origin, k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if v, ok := p.Value(k); !ok || string(v) != "v2" || p.ReplicaCount() != 1 {
		t.Fatalf("after overwrite: value %q (found %v), %d entries; want v2 in 1 entry", v, ok, p.ReplicaCount())
	}
	if removed, err := p.Delete(0, k); err != nil || removed != 0 {
		t.Fatalf("delete by the replaced origin removed %d (err=%v), want 0", removed, err)
	}
	if removed, err := p.Delete(1, k); err != nil || removed != 1 {
		t.Fatalf("delete by the current origin removed %d (err=%v), want 1", removed, err)
	}
	if res := p.Lookup(0, k); res.Found {
		t.Fatal("deleted key still found")
	}
}

func TestPoolDefaultsShardsToGOMAXPROCS(t *testing.T) {
	ov, err := RandomOverlay(100, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPool(ov, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumShards() < 1 {
		t.Fatalf("NumShards = %d", p.NumShards())
	}
}

// TestPoolForEachReplicaFromPaginates pins the pool-level cursor walk:
// stable (shard, key) order, exactly-once delivery across budgeted pages,
// every page resuming exactly at the cursor the previous one returned,
// and termination — the contract paginated peer repair builds on.
func TestPoolForEachReplicaFromPaginates(t *testing.T) {
	ov, err := CompleteOverlay(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPool(ov, 4)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 5000
	for i := 0; i < keys; i++ {
		key := NewID(fmt.Sprintf("page-%d", i))
		if err := p.ImportReplica(0, uint32(i%ov.N()), key, []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, page := range []int{1, 7, 64, 1000, keys + 10} {
		seen := map[ID]bool{}
		var cur ReplicaCursor
		var prev ReplicaCursor // position of the last key delivered
		pages := 0
		for {
			if pages > keys+1 {
				t.Fatalf("page size %d: pagination never terminated", page)
			}
			n := 0
			next, done := p.ForEachReplicaFrom(cur, func(_ uint32, key ID, _ []byte) bool {
				if n == page {
					return false
				}
				pos := ReplicaCursor{Shard: uint32(p.ShardOf(key)), Key: key}
				if n == 0 && pages > 0 && pos != cur {
					t.Fatalf("page size %d: page %d starts at %v, not at its cursor %v", page, pages, pos, cur)
				}
				if len(seen) > 0 && (pos.Shard < prev.Shard || pos.Shard == prev.Shard && pos.Key.Cmp(prev.Key) <= 0) {
					t.Fatalf("page size %d: %v delivered after %v, out of (shard, key) order", page, pos, prev)
				}
				if seen[key] {
					t.Fatalf("page size %d: key %v delivered twice", page, key)
				}
				seen[key], prev = true, pos
				n++
				return true
			})
			pages++
			if done {
				break
			}
			if n == 0 {
				t.Fatalf("page size %d: cursor made no progress", page)
			}
			cur = next
		}
		if len(seen) != keys {
			t.Fatalf("page size %d: visited %d keys in %d pages, want %d", page, len(seen), pages, keys)
		}
		if want := (keys + page - 1) / page; page <= keys && pages != want && pages != want+1 {
			t.Fatalf("page size %d: %d pages, want %d", page, pages, want)
		}
	}
}

// sameShardKeys returns n distinct keys that all map to shard 0 of p,
// generated deterministically from prefix.
func sameShardKeys(p *Pool, prefix string, n int) []ID {
	var keys []ID
	for i := 0; len(keys) < n; i++ {
		k := NewID(fmt.Sprintf("%s-%d", prefix, i))
		if p.ShardOf(k) == 0 {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestPoolExecBatchMatchesSequential pins the batch execution contract:
// a batch is equivalent to issuing its ops back to back on the shard —
// same results, same stats, intra-batch read-your-writes included.
func TestPoolExecBatchMatchesSequential(t *testing.T) {
	ov, err := CompleteOverlay(128, 1)
	if err != nil {
		t.Fatal(err)
	}
	newP := func() *Pool {
		p, err := NewPool(ov, 4)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	seq, bat := newP(), newP()
	keys := sameShardKeys(seq, "batch-eq", 30)

	var ops []BatchOp
	for i, k := range keys {
		ops = append(ops, BatchOp{Kind: BatchInsert, Origin: i % ov.N(), Key: k, Value: []byte(fmt.Sprintf("v-%d", i))})
	}
	for i, k := range keys {
		ops = append(ops, BatchOp{Kind: BatchLookup, Origin: (i * 31) % ov.N(), Key: k})
	}
	for i, k := range keys[:10] {
		ops = append(ops, BatchOp{Kind: BatchDelete, Origin: i % ov.N(), Key: k})
	}

	// The reference: the same op stream, one call at a time.
	want := make([]BatchOp, len(ops))
	copy(want, ops)
	for i := range want {
		op := &want[i]
		switch op.Kind {
		case BatchInsert:
			op.Insert, op.Err = seq.Insert(op.Origin, op.Key, op.Value)
		case BatchLookup:
			op.Lookup = seq.Lookup(op.Origin, op.Key)
		case BatchDelete:
			op.Removed, op.Err = seq.Delete(op.Origin, op.Key)
		}
		if op.Err != nil {
			t.Fatalf("sequential op %d: %v", i, op.Err)
		}
	}

	bat.ExecBatch(ops)
	for i := range ops {
		if ops[i].Err != nil {
			t.Fatalf("batched op %d: %v", i, ops[i].Err)
		}
		if ops[i].Insert != want[i].Insert || ops[i].Lookup != want[i].Lookup || ops[i].Removed != want[i].Removed {
			t.Fatalf("op %d differs batched vs sequential:\n %+v\n %+v", i, ops[i], want[i])
		}
		if ops[i].Kind == BatchLookup && !ops[i].Lookup.Found {
			t.Fatalf("op %d: intra-batch read-your-writes broken", i)
		}
	}
	if a, b := seq.Stats(), bat.Stats(); !reflect.DeepEqual(a, b) {
		t.Fatalf("stats differ batched vs sequential:\n %+v\n %+v", b, a)
	}
}

// TestPoolExecBatchRefusals: an op whose key maps to another shard, or
// whose mutation targets a foreign region, is refused individually while
// the rest of the batch executes — and foreign-region lookups still
// serve, matching Pool.Lookup.
func TestPoolExecBatchRefusals(t *testing.T) {
	ov, err := CompleteOverlay(128, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPool(ov, 4, WithRegion(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Hunt for: an owned key on shard 0, a foreign-region key on shard 0,
	// and any key on another shard.
	var owned, foreign, wrongShard ID
	var haveOwned, haveForeign, haveWrong bool
	for i := 0; !(haveOwned && haveForeign && haveWrong); i++ {
		k := NewID(fmt.Sprintf("refuse-%d", i))
		switch {
		case p.ShardOf(k) != 0:
			wrongShard, haveWrong = k, true
		case p.Owns(k) && !haveOwned:
			owned, haveOwned = k, true
		case !p.Owns(k) && !haveForeign:
			foreign, haveForeign = k, true
		}
	}
	ops := []BatchOp{
		{Kind: BatchInsert, Origin: 1, Key: owned, Value: []byte("v")},
		{Kind: BatchInsert, Origin: 1, Key: foreign, Value: []byte("v")},
		{Kind: BatchLookup, Origin: 1, Key: foreign},
		{Kind: BatchInsert, Origin: 1, Key: wrongShard, Value: []byte("v")},
		{Kind: BatchLookup, Origin: 2, Key: owned},
	}
	p.ExecBatch(ops)
	if ops[0].Err != nil {
		t.Fatalf("owned insert refused: %v", ops[0].Err)
	}
	if ops[1].Err == nil {
		t.Fatal("foreign-region insert accepted")
	}
	if ops[2].Err != nil {
		t.Fatalf("foreign-region lookup refused: %v", ops[2].Err)
	}
	if ops[2].Lookup.Found {
		t.Fatal("foreign lookup found a refused insert")
	}
	if ops[3].Err == nil {
		t.Fatal("wrong-shard insert accepted")
	}
	if ops[4].Err != nil || !ops[4].Lookup.Found {
		t.Fatalf("batch tail broken after refusals: err=%v found=%v", ops[4].Err, ops[4].Lookup.Found)
	}
}

// TestPoolForEachReplicaFromStopsEarly pins the early-stop guarantee
// behind budgeted repair: once the callback rejects an entry, the walk
// invokes it exactly zero more times — later entries and shards are
// never visited (and their locks never taken).
func TestPoolForEachReplicaFromStopsEarly(t *testing.T) {
	ov, err := CompleteOverlay(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPool(ov, 4)
	if err != nil {
		t.Fatal(err)
	}
	const replicas = 500
	for i := 0; i < replicas; i++ {
		if err := p.ImportReplica(0, 0, NewID(fmt.Sprintf("early-%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	const accept = 5
	calls := 0
	_, done := p.ForEachReplicaFrom(ReplicaCursor{}, func(uint32, ID, []byte) bool {
		calls++
		return calls <= accept
	})
	if done {
		t.Fatal("stopped walk reported done")
	}
	if calls != accept+1 {
		t.Fatalf("callback ran %d times after rejecting at %d; the walk did not stop", calls, accept+1)
	}
}

// TestPoolImportBatchMatchesPerEntry pins the equivalence that makes the
// batched repair-apply path safe to substitute for the per-entry one:
// importing a batch produces exactly the state (same serialized bytes)
// that applying each entry through ImportReplica does, and per-entry
// refusals (foreign regions) skip only themselves in both.
func TestPoolImportBatchMatchesPerEntry(t *testing.T) {
	ov, err := CompleteOverlay(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	newRegioned := func() *Pool {
		p, err := NewPool(ov, 4, WithRegion(1, 3))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	batched, perEntry := newRegioned(), newRegioned()

	var entries []ReplicaEntry
	owned, refused := 0, 0
	for i := 0; len(entries) < 200; i++ {
		e := ReplicaEntry{
			Origin: uint32(i % 7),
			Key:    NewID(fmt.Sprintf("import-batch-%d", i)),
			Value:  []byte(fmt.Sprintf("payload-%d", i)),
		}
		if batched.Owns(e.Key) {
			owned++
		} else {
			refused++
		}
		entries = append(entries, e)
	}
	// A duplicate entry (same key, new value) must resolve the same way in
	// both paths.
	for i := 0; i < 10; i++ {
		if batched.Owns(entries[i].Key) {
			dup := entries[i]
			dup.Value = []byte("rewritten")
			entries = append(entries, dup)
			owned++
			break
		}
	}
	if owned == 0 || refused == 0 {
		t.Fatalf("test needs both owned (%d) and refused (%d) entries", owned, refused)
	}

	fresh, firstErr := batched.ImportBatch(entries)
	if fresh != owned {
		t.Fatalf("ImportBatch applied %d entries, want %d (err %v)", fresh, owned, firstErr)
	}
	if firstErr == nil {
		t.Fatal("ImportBatch reported no error despite refused entries")
	}

	perAccepted := 0
	for _, e := range entries {
		if err := perEntry.ImportReplica(0, e.Origin, e.Key, e.Value); err == nil {
			perAccepted++
		}
	}
	if perAccepted != owned {
		t.Fatalf("per-entry accepted %d, want %d", perAccepted, owned)
	}

	got, want := exportAll(batched), exportAll(perEntry)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("batched import state differs from per-entry state")
	}
}

// TestPoolImportBatchEmptyAndUnrestricted covers the trivial shapes: an
// empty batch is a no-op and an unrestricted pool accepts everything.
func TestPoolImportBatchEmptyAndUnrestricted(t *testing.T) {
	ov, err := CompleteOverlay(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPool(ov, 4)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := p.ImportBatch(nil); n != 0 || err != nil {
		t.Fatalf("empty batch: %d %v", n, err)
	}
	var entries []ReplicaEntry
	for i := 0; i < 50; i++ {
		entries = append(entries, ReplicaEntry{
			Origin: uint32(i), Key: NewID(fmt.Sprintf("unres-%d", i)), Value: []byte("v"),
		})
	}
	if n, err := p.ImportBatch(entries); n != len(entries) || err != nil {
		t.Fatalf("unrestricted batch: %d %v", n, err)
	}
	if got := p.ReplicaCount(); got != len(entries) {
		t.Fatalf("stored %d entries, want %d", got, len(entries))
	}
}

// TestPoolImportBatchSkipsIdenticalReplays pins the convergence signal
// periodic anti-entropy runs on: re-importing entries the pool already
// holds byte-identically succeeds but reports fresh == 0 and mutates
// nothing,
// while any entry that differs — and any entry shadowed by an earlier
// op of the same batch — still applies. Without the skip, every
// steady-state anti-entropy pass would re-log the entire keyspace.
func TestPoolImportBatchSkipsIdenticalReplays(t *testing.T) {
	ov, err := CompleteOverlay(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPool(ov, 4)
	if err != nil {
		t.Fatal(err)
	}
	var entries []ReplicaEntry
	for i := 0; i < 40; i++ {
		entries = append(entries, ReplicaEntry{
			Origin: uint32(i % 5), Key: NewID(fmt.Sprintf("replay-%d", i)), Value: []byte(fmt.Sprintf("v-%d", i)),
		})
	}
	if fresh, err := p.ImportBatch(entries); err != nil || fresh != 40 {
		t.Fatalf("first import: fresh %d err %v, want 40/nil", fresh, err)
	}
	want := exportAll(p)

	// Identical replay: no error, zero fresh, state untouched.
	if fresh, err := p.ImportBatch(entries); err != nil || fresh != 0 {
		t.Fatalf("identical replay: fresh %d err %v, want 0/nil", fresh, err)
	}
	if got := exportAll(p); !reflect.DeepEqual(got, want) {
		t.Fatal("identical replay mutated pool state")
	}

	// One changed value: exactly that entry is fresh, and it lands.
	entries[7].Value = []byte("changed")
	if fresh, err := p.ImportBatch(entries); err != nil || fresh != 1 {
		t.Fatalf("one-changed replay: fresh %d err %v, want 1/nil", fresh, err)
	}
	if v, ok := p.Value(entries[7].Key); !ok || string(v) != "changed" {
		t.Fatalf("changed entry not applied: ok=%v v=%q", ok, v)
	}
	// A lone import of a stored key with a different value is not skipped
	// either: the key's one entry takes the new value.
	lone := []ReplicaEntry{{Origin: entries[9].Origin, Key: entries[9].Key, Value: []byte("replaced")}}
	if fresh, err := p.ImportBatch(lone); err != nil || fresh != 1 {
		t.Fatalf("same-key different-value import: fresh %d err %v, want 1/nil", fresh, err)
	}
	if v, _ := p.Value(entries[9].Key); string(v) != "replaced" || p.ReplicaCount() != 40 {
		t.Fatalf("same-key import left %q in %d entries, want replaced in 40", v, p.ReplicaCount())
	}
	entries[9] = lone[0]
	// Same bytes under a different origin are NOT identical: origin is
	// entry state too (it decides who may delete), so the entry must
	// re-apply.
	// (Entry 7's new value landed above, so it skips this time.)
	entries[3].Origin++
	if fresh, err := p.ImportBatch(entries); err != nil || fresh != 1 {
		t.Fatalf("origin-changed replay: fresh %d err %v, want exactly the origin change fresh", fresh, err)
	}

	// Intra-batch shadowing: with K already stored as v0, the batch
	// [put K v1, put K v0] must end at v0 (exact one-by-one
	// equivalence) — the second put matches pre-batch state but is
	// shadowed by the first, so it cannot be skipped.
	k := NewID("replay-shadow")
	if _, err := p.ImportBatch([]ReplicaEntry{{Origin: 2, Key: k, Value: []byte("v0")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ImportBatch([]ReplicaEntry{
		{Origin: 2, Key: k, Value: []byte("v1")},
		{Origin: 2, Key: k, Value: []byte("v0")},
	}); err != nil {
		t.Fatal(err)
	}
	if v, ok := p.Value(k); !ok || string(v) != "v0" {
		t.Fatalf("shadowed put skipped: ok=%v v=%q, want v0", ok, v)
	}
}
