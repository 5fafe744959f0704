package discovery

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"discovery/internal/snapshot"
)

// newDurableTestOverlay is the overlay the durable pool tests build
// over; it sizes the origin space (128 origins).
func newDurableTestOverlay(t testing.TB) *StaticOverlay {
	t.Helper()
	ov, err := CompleteOverlay(128, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ov
}

func openDurable(t testing.TB, ov Overlay, dir string, cfg DurableConfig) (*DurablePool, RecoveryStats) {
	t.Helper()
	cfg.Dir = dir
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	dp, stats, err := OpenDurablePool(ov, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return dp, stats
}

// exportAll snapshots every shard's state for equality comparisons.
func exportAll(p *Pool) [][]snapshot.Entry {
	out := make([][]snapshot.Entry, p.NumShards())
	for i := range out {
		s := &p.shards[i]
		s.mu.Lock()
		out[i] = p.exportShardLocked(i)
		s.mu.Unlock()
	}
	return out
}

func TestDurablePoolRestartAfterClose(t *testing.T) {
	ov := newDurableTestOverlay(t)
	dir := t.TempDir()
	dp, stats := openDurable(t, ov, dir, DurableConfig{Fsync: FsyncBatch})
	if stats.SnapshotEntries != 0 || stats.Replayed != 0 {
		t.Fatalf("fresh dir recovered something: %+v", stats)
	}
	const keys = 60
	for i := 0; i < keys; i++ {
		if _, err := dp.Insert(i%ov.N(), NewID(fmt.Sprintf("dur-%d", i)), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Delete a few so replay covers both kinds.
	for i := 0; i < keys; i += 10 {
		if _, err := dp.Delete(i%ov.N(), NewID(fmt.Sprintf("dur-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	want := exportAll(dp.Pool)
	if err := dp.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := dp.Insert(0, NewID("after-close"), []byte("v")); err == nil {
		t.Fatal("insert after Close succeeded")
	}

	dp2, stats2 := openDurable(t, ov, dir, DurableConfig{Fsync: FsyncBatch})
	defer dp2.Close()
	// A graceful close snapshots every shard, so nothing replays.
	if stats2.Replayed != 0 {
		t.Fatalf("replayed %d records after clean close", stats2.Replayed)
	}
	if got := exportAll(dp2.Pool); !reflect.DeepEqual(got, want) {
		t.Fatal("state after clean restart differs")
	}
	// Deleted keys stay deleted; surviving keys stay findable.
	for i := 1; i < keys; i++ {
		res := dp2.Lookup((i*31)%ov.N(), NewID(fmt.Sprintf("dur-%d", i)))
		if want := i%10 != 0; res.Found != want {
			t.Errorf("key %d found=%v after restart, want %v", i, res.Found, want)
		}
	}
}

func TestDurablePoolCrashReplay(t *testing.T) {
	ov := newDurableTestOverlay(t)
	dir := t.TempDir()
	dp, _ := openDurable(t, ov, dir, DurableConfig{Fsync: FsyncBatch})
	const keys = 40
	for i := 0; i < keys; i++ {
		if _, err := dp.Insert(i%ov.N(), NewID(fmt.Sprintf("crash-%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	want := exportAll(dp.Pool)
	// No Close: simulate a crash by abandoning the pool. Every insert
	// above was acked, and FsyncBatch means acked ⇒ durable, so a fresh
	// open must rebuild the exact state from the log alone.
	dp2, stats := openDurable(t, ov, dir, DurableConfig{Fsync: FsyncBatch})
	defer dp2.Close()
	if stats.Replayed != keys {
		t.Fatalf("replayed %d records, want %d", stats.Replayed, keys)
	}
	if stats.SnapshotEntries != 0 {
		t.Fatalf("loaded %d snapshot entries, want 0", stats.SnapshotEntries)
	}
	if got := exportAll(dp2.Pool); !reflect.DeepEqual(got, want) {
		t.Fatal("state after crash replay differs from the acked state")
	}
}

func TestDurablePoolTransferOpsSurviveCrash(t *testing.T) {
	// ImportReplica/DropReplica (the cluster replica-transfer primitives,
	// internal/p2p) are write-ahead logged: replay must reproduce them
	// exactly.
	ov := newDurableTestOverlay(t)
	dir := t.TempDir()
	dp, _ := openDurable(t, ov, dir, DurableConfig{Fsync: FsyncBatch})
	const keys = 30
	for i := 0; i < keys; i++ {
		key := NewID(fmt.Sprintf("xfer-%d", i))
		if err := dp.ImportReplica(i%ov.N(), uint32(i%7), key, []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Drop a few, including one that was never stored (a no-op that must
	// not log anything).
	for i := 0; i < keys; i += 5 {
		dropped, err := dp.DropReplica(NewID(fmt.Sprintf("xfer-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if !dropped {
			t.Fatalf("drop %d reported absent", i)
		}
	}
	if dropped, err := dp.DropReplica(NewID("never-stored")); err != nil || dropped {
		t.Fatalf("phantom drop: %v %v", dropped, err)
	}
	want := exportAll(dp.Pool)
	// Crash: no Close. Replay must rebuild imports and drops alone.
	dp2, stats := openDurable(t, ov, dir, DurableConfig{Fsync: FsyncBatch})
	defer dp2.Close()
	if wantReplay := keys + keys/5; stats.Replayed != wantReplay {
		t.Fatalf("replayed %d records, want %d", stats.Replayed, wantReplay)
	}
	if got := exportAll(dp2.Pool); !reflect.DeepEqual(got, want) {
		t.Fatal("transferred state after crash replay differs")
	}
	// The imported entries are now first-class state.
	for i := 1; i < keys; i++ {
		if i%5 == 0 {
			continue
		}
		key := NewID(fmt.Sprintf("xfer-%d", i))
		if v, ok := dp2.Value(key); !ok || string(v) != fmt.Sprintf("payload-%d", i) {
			t.Errorf("imported entry %d missing after replay (ok=%v v=%q)", i, ok, v)
		}
	}
}

func TestDurablePoolSnapshotTruncatesLog(t *testing.T) {
	ov := newDurableTestOverlay(t)
	dir := t.TempDir()
	// Tiny segments so snapshots actually free whole segments.
	dp, _ := openDurable(t, ov, dir, DurableConfig{Fsync: FsyncOff, SegmentBytes: 512})
	const keys = 80
	for i := 0; i < keys; i++ {
		if _, err := dp.Insert(i%ov.N(), NewID(fmt.Sprintf("snap-%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot every shard synchronously (the background path runs the
	// same function off snapCh).
	for i := 0; i < dp.NumShards(); i++ {
		if err := dp.snapshotShard(i); err != nil {
			t.Fatal(err)
		}
	}
	// The safe truncation cutoff is min over shards of the snapshot seq,
	// so whole segments below it are gone; a tail whose records are all
	// snapshot-covered may remain.
	first, next := dp.log.Bounds()
	if first <= 1 {
		t.Fatalf("log not truncated after all-shard snapshots: [%d,%d)", first, next)
	}
	want := exportAll(dp.Pool)

	// Crash-reopen: recovery must come entirely from the snapshots.
	dp2, stats := openDurable(t, ov, dir, DurableConfig{Fsync: FsyncOff, SegmentBytes: 512})
	defer dp2.Close()
	if stats.Replayed != 0 {
		t.Fatalf("replayed %d records, want 0 (snapshots cover all)", stats.Replayed)
	}
	if stats.SnapshotEntries == 0 {
		t.Fatal("no snapshot entries restored")
	}
	if got := exportAll(dp2.Pool); !reflect.DeepEqual(got, want) {
		t.Fatal("state after snapshot recovery differs")
	}
	// And mutations keep flowing with continuous sequence numbers.
	if _, err := dp2.Insert(3, NewID("post-snapshot"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, n2 := dp2.log.Bounds(); n2 != next+1 {
		t.Fatalf("next seq after post-recovery insert = %d, want %d", n2, next+1)
	}
}

func TestDurablePoolSnapshotOverWAL(t *testing.T) {
	// Snapshot some shards but not others; recovery must mix restore
	// and replay correctly.
	ov := newDurableTestOverlay(t)
	dir := t.TempDir()
	dp, _ := openDurable(t, ov, dir, DurableConfig{Fsync: FsyncBatch})
	const keys = 50
	insert := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if _, err := dp.Insert(i%ov.N(), NewID(fmt.Sprintf("mix-%d", i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert(0, keys/2)
	for i := 0; i < dp.NumShards(); i += 2 {
		if err := dp.snapshotShard(i); err != nil {
			t.Fatal(err)
		}
	}
	insert(keys/2, keys)
	want := exportAll(dp.Pool)

	dp2, stats := openDurable(t, ov, dir, DurableConfig{Fsync: FsyncBatch})
	defer dp2.Close()
	if stats.SnapshotEntries == 0 || stats.Replayed == 0 {
		t.Fatalf("expected mixed recovery, got %+v", stats)
	}
	if got := exportAll(dp2.Pool); !reflect.DeepEqual(got, want) {
		t.Fatal("mixed snapshot+replay recovery diverged")
	}
}

func TestDurablePoolConcurrent(t *testing.T) {
	// Concurrent writers over the durable pool: group commit, the
	// background snapshotter, and the hooks all race-tested together.
	ov := newDurableTestOverlay(t)
	dir := t.TempDir()
	dp, _ := openDurable(t, ov, dir, DurableConfig{Fsync: FsyncBatch, SnapshotEvery: 16})
	const workers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := NewID(fmt.Sprintf("conc-%d-%d", w, i))
				if _, err := dp.Insert((w*per+i)%ov.N(), key, []byte("v")); err != nil {
					t.Errorf("worker %d insert %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// Crash-reopen (no Close) and verify every acked insert is findable.
	dp2, _ := openDurable(t, ov, dir, DurableConfig{Fsync: FsyncBatch})
	defer dp2.Close()
	for w := 0; w < workers; w++ {
		for i := 0; i < per; i++ {
			key := NewID(fmt.Sprintf("conc-%d-%d", w, i))
			if res := dp2.Lookup((w+i)%ov.N(), key); !res.Found {
				t.Errorf("acked key conc-%d-%d lost across crash", w, i)
			}
		}
	}
}

func TestDurablePoolManifestMismatch(t *testing.T) {
	ov := newDurableTestOverlay(t)
	dir := t.TempDir()
	dp, _ := openDurable(t, ov, dir, DurableConfig{Fsync: FsyncOff})
	dp.Close()

	// Different shard count: records and snapshots are filed by shard.
	if _, _, err := OpenDurablePool(ov, 8, DurableConfig{Dir: dir}); err == nil {
		t.Fatal("mismatched shard count accepted")
	}
	// A different region slice is a mismatch too: recovering another
	// region's data into this node would strand it.
	if _, _, err := OpenDurablePool(ov, 4, DurableConfig{Dir: dir}, WithRegion(1, 3)); err == nil {
		t.Fatal("mismatched region accepted")
	}
	// So is a different replica-set layout.
	if _, _, err := OpenDurablePool(ov, 4, DurableConfig{Dir: dir}, WithRegion(0, 3), WithReplication(2)); err == nil {
		t.Fatal("mismatched replication accepted")
	}
	// The original parameters still open fine.
	dp2, _ := openDurable(t, ov, dir, DurableConfig{Fsync: FsyncOff})
	dp2.Close()
}

// TestDurablePoolRefusesOldManifest pins what a data directory from an
// earlier release meets: its v3 MANIFEST names the same shards, region
// and replication as this pool but is not the text this release writes,
// so it gets the ordinary mismatch refusal — no upgrade in place, the
// file untouched.
func TestDurablePoolRefusesOldManifest(t *testing.T) {
	ov := newDurableTestOverlay(t)
	dir := t.TempDir()
	dp, _ := openDurable(t, ov, dir, DurableConfig{Fsync: FsyncOff})
	if _, err := dp.Insert(0, NewID("v3-key"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	dp.Close()

	// v3 also pinned the engine options and the overlay fingerprint.
	const v3 = "discovery-manifest v3\nshards 4\nseed 1\ndigitbits 4\nmaxflows 10\nreplicas 5\ndupsupp false\nmaxhops 8\nregion 0/1\nreplication 1\noverlay 9e3d2b1f00c4a871\n"
	path := filepath.Join(dir, manifestName)
	if err := os.WriteFile(path, []byte(v3), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenDurablePool(ov, 4, DurableConfig{Dir: dir, Fsync: FsyncOff})
	if err == nil || !strings.Contains(err.Error(), "different parameters") {
		t.Fatalf("v3 manifest: %v, want the mismatch refusal", err)
	}
	if got, rerr := os.ReadFile(path); rerr != nil || string(got) != v3 {
		t.Fatalf("refused manifest was rewritten (%v):\n%s", rerr, got)
	}
}

// TestDurablePoolExecBatchCrashReplay pins the batched write-ahead
// contract: every mutation of an ExecBatch is logged (one multi-record
// append, one shared fsync) before any of them applies, so a crash after
// the batch returns loses nothing and replay rebuilds the exact state.
func TestDurablePoolExecBatchCrashReplay(t *testing.T) {
	ov := newDurableTestOverlay(t)
	dir := t.TempDir()
	dp, _ := openDurable(t, ov, dir, DurableConfig{Fsync: FsyncBatch})

	var keys []ID
	for i := 0; len(keys) < 24; i++ {
		k := NewID(fmt.Sprintf("batch-crash-%d", i))
		if dp.ShardOf(k) == 0 {
			keys = append(keys, k)
		}
	}
	var ops []BatchOp
	for i, k := range keys {
		ops = append(ops, BatchOp{Kind: BatchInsert, Origin: i % ov.N(), Key: k, Value: []byte(fmt.Sprintf("v-%d", i))})
	}
	for i, k := range keys {
		ops = append(ops, BatchOp{Kind: BatchLookup, Origin: i % ov.N(), Key: k})
	}
	for i, k := range keys[:6] {
		ops = append(ops, BatchOp{Kind: BatchDelete, Origin: i % ov.N(), Key: k})
	}
	dp.ExecBatch(ops)
	for i := range ops {
		if ops[i].Err != nil {
			t.Fatalf("batch op %d: %v", i, ops[i].Err)
		}
	}
	want := exportAll(dp.Pool)

	// No Close: the pool is abandoned mid-flight. Only the mutations were
	// logged — lookups leave no records — and all of them were covered by
	// the batch's shared fsync before ExecBatch returned.
	dp2, stats := openDurable(t, ov, dir, DurableConfig{Fsync: FsyncBatch})
	defer dp2.Close()
	if wantReplayed := len(keys) + 6; stats.Replayed != wantReplayed {
		t.Fatalf("replayed %d records, want %d (lookups must not be logged)", stats.Replayed, wantReplayed)
	}
	if got := exportAll(dp2.Pool); !reflect.DeepEqual(got, want) {
		t.Fatal("state after batched crash replay differs from the acked state")
	}
	for i, k := range keys {
		res := dp2.Lookup(i%ov.N(), k)
		if want := i >= 6; res.Found != want {
			t.Errorf("key %d found=%v after crash replay, want %v", i, res.Found, want)
		}
	}
}

// TestDurablePoolExecBatchSharesOneAppend pins the shared-commit shape:
// a batch of N mutations consumes exactly N consecutive log sequence
// numbers via one AppendBatch, not N separate append+fsync rounds.
func TestDurablePoolExecBatchSharesOneAppend(t *testing.T) {
	ov := newDurableTestOverlay(t)
	dir := t.TempDir()
	dp, _ := openDurable(t, ov, dir, DurableConfig{Fsync: FsyncBatch})
	defer dp.Close()

	var keys []ID
	for i := 0; len(keys) < 16; i++ {
		k := NewID(fmt.Sprintf("batch-one-append-%d", i))
		if dp.ShardOf(k) == 0 {
			keys = append(keys, k)
		}
	}
	ops := make([]BatchOp, len(keys))
	for i, k := range keys {
		ops[i] = BatchOp{Kind: BatchInsert, Origin: i % ov.N(), Key: k, Value: []byte("v")}
	}
	before, _ := dp.log.Bounds()
	dp.ExecBatch(ops)
	_, after := dp.log.Bounds()
	if int(after-before) != len(keys) {
		t.Fatalf("batch logged %d records, want %d", after-before, len(keys))
	}
	for i := range ops {
		if ops[i].Err != nil {
			t.Fatalf("batch op %d: %v", i, ops[i].Err)
		}
	}
}

// TestDurablePoolImportBatchCrashReplay pins the batched transfer-apply
// durability contract: every entry of an acked ImportBatch is recovered
// exactly, from the log alone after a crash.
func TestDurablePoolImportBatchCrashReplay(t *testing.T) {
	ov := newDurableTestOverlay(t)
	dir := t.TempDir()
	dp, _ := openDurable(t, ov, dir, DurableConfig{Fsync: FsyncBatch})

	var entries []ReplicaEntry
	for i := 0; i < 48; i++ {
		entries = append(entries, ReplicaEntry{
			Origin: uint32(i % 5),
			Key:    NewID(fmt.Sprintf("import-crash-%d", i)),
			Value:  []byte(fmt.Sprintf("payload-%d", i)),
		})
	}
	accepted, _, err := dp.ImportBatch(entries)
	if err != nil || accepted != len(entries) {
		t.Fatalf("ImportBatch: accepted %d, err %v", accepted, err)
	}
	want := exportAll(dp.Pool)

	// No Close: the batch was acked, FsyncBatch means acked ⇒ durable.
	dp2, stats := openDurable(t, ov, dir, DurableConfig{Fsync: FsyncBatch})
	defer dp2.Close()
	if stats.Replayed != len(entries) {
		t.Fatalf("replayed %d records, want %d", stats.Replayed, len(entries))
	}
	if got := exportAll(dp2.Pool); !reflect.DeepEqual(got, want) {
		t.Fatal("state after batched-import crash replay differs from the acked state")
	}
	for _, e := range entries {
		if v, ok := dp2.Value(e.Key); !ok || string(v) != string(e.Value) {
			t.Fatalf("entry %v missing after replay (ok=%v v=%q)", e.Key, ok, v)
		}
	}
}

// TestDurablePoolImportBatchSharesAppends pins the group-commit shape of
// the batched transfer apply: a batch of N same-shard entries consumes N
// consecutive log seqs via one AppendBatch per shard group, not N
// append+fsync rounds.
func TestDurablePoolImportBatchSharesAppends(t *testing.T) {
	ov := newDurableTestOverlay(t)
	dir := t.TempDir()
	dp, _ := openDurable(t, ov, dir, DurableConfig{Fsync: FsyncBatch})
	defer dp.Close()

	var entries []ReplicaEntry
	for i := 0; len(entries) < 16; i++ {
		k := NewID(fmt.Sprintf("import-one-append-%d", i))
		if dp.ShardOf(k) != 0 {
			continue
		}
		entries = append(entries, ReplicaEntry{Origin: 1, Key: k, Value: []byte("v")})
	}
	before, _ := dp.log.Bounds()
	if accepted, _, err := dp.ImportBatch(entries); err != nil || accepted != len(entries) {
		t.Fatalf("ImportBatch: accepted %d, err %v", accepted, err)
	}
	_, after := dp.log.Bounds()
	if int(after-before) != len(entries) {
		t.Fatalf("batch logged %d records, want %d", after-before, len(entries))
	}
}

// TestDurablePoolFsyncFailureNeverAcks proves the poison-on-sync-error
// contract end to end through DurablePool, on a batch the commit combiner
// merged from several submitters: once the injected fsync failure fires,
// every mutation of the merged batch — whoever submitted it — is rejected
// (never acked) and never applied to the store — the write-ahead append
// runs before apply — while the lookups riding in the same batch still
// answer, and the log refuses every further append, even after the
// injected fault is lifted. A fresh reopen without the hook recovers
// cleanly and serves every previously-acked key.
func TestDurablePoolFsyncFailureNeverAcks(t *testing.T) {
	ov := newDurableTestOverlay(t)
	dir := t.TempDir()
	var fail atomic.Bool
	// hold, when set, parks the fsync that receives it until it is closed:
	// the window in which other submitters queue up behind that round.
	var hold atomic.Pointer[chan struct{}]
	cfg := DurableConfig{
		Dir:   dir,
		Fsync: FsyncBatch,
		Logf:  t.Logf,
		WALSyncErr: func() error {
			if ch := hold.Swap(nil); ch != nil {
				<-*ch
				return nil
			}
			if fail.Load() {
				return fmt.Errorf("chaos: injected fsync failure")
			}
			return nil
		},
	}
	dp, _, err := OpenDurablePool(ov, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	keys := sameShardKeys(dp.Pool, "fsync", 6)
	acked, ackedLate, lost := keys[0], keys[1], keys[2:]
	if _, err := dp.Insert(0, acked, []byte("safe")); err != nil {
		t.Fatalf("healthy insert: %v", err)
	}

	// One insert's fsync is held open; behind it four submitters queue a
	// mutation and a lookup each. The held fsync then succeeds, and the
	// merged batch that follows hits the failure.
	release := make(chan struct{})
	hold.Store(&release)
	lateErr := make(chan error, 1)
	go func() {
		_, err := dp.Insert(1, ackedLate, []byte("safe too"))
		lateErr <- err
	}()
	for hold.Load() != nil {
		runtime.Gosched() // until the leader is inside its fsync
	}
	batches := make([][]BatchOp, len(lost))
	var wg sync.WaitGroup
	for i, k := range lost {
		batches[i] = []BatchOp{
			{Kind: BatchInsert, Origin: 1, Key: k, Value: []byte("gone")},
			{Kind: BatchLookup, Origin: 2, Key: acked},
		}
		if i == 0 {
			batches[i][0] = BatchOp{Kind: BatchDelete, Origin: 0, Key: acked}
		}
		wg.Add(1)
		go func(ops []BatchOp) {
			defer wg.Done()
			dp.ExecBatch(ops)
		}(batches[i])
	}
	waitQueued(t, dp.Pool, len(lost))
	fail.Store(true)
	close(release)
	wg.Wait()
	if err := <-lateErr; err != nil {
		t.Fatalf("insert whose own fsync succeeded: %v", err)
	}
	for i, ops := range batches {
		if ops[0].Err == nil {
			t.Fatalf("submitter %d: mutation through failed fsync was acked", i)
		}
		if ops[1].Err != nil || !ops[1].Lookup.Found {
			t.Fatalf("submitter %d: lookup in the failed batch did not answer: %+v", i, ops[1])
		}
	}
	// Write-ahead: the failed append aborted every mutation before apply.
	for _, k := range lost[1:] {
		if res := dp.Lookup(2, k); res.Found {
			t.Fatal("failed-sync insert is visible in the store")
		}
	}
	if res := dp.Lookup(2, acked); !res.Found {
		t.Fatal("failed-sync delete was applied to the store")
	}
	// Poisoned log refuses further appends — including after the
	// injected fault heals. Only a restart (recovery) clears it.
	if _, err := dp.Insert(2, NewID("fsync-refused"), []byte("no")); err == nil {
		t.Fatal("insert on poisoned log was acked")
	}
	fail.Store(false)
	if _, err := dp.Insert(3, NewID("fsync-still-refused"), []byte("no")); err == nil {
		t.Fatal("insert after fault heal was acked; poison must be sticky")
	}
	// Reads keep working on the poisoned pool.
	if res := dp.Lookup(3, acked); !res.Found {
		t.Fatal("acked key unreadable on poisoned pool")
	}
	dp.Close()

	dp2, _, err := OpenDurablePool(ov, 4, DurableConfig{Dir: dir, Fsync: FsyncBatch, Logf: t.Logf})
	if err != nil {
		t.Fatalf("reopen after poison: %v", err)
	}
	defer dp2.Close()
	for _, k := range []ID{acked, ackedLate} {
		if res := dp2.Lookup(1, k); !res.Found {
			t.Fatal("acked key lost across poison + restart")
		}
	}
	if _, err := dp2.Insert(0, NewID("fsync-after-recovery"), []byte("v")); err != nil {
		t.Fatalf("insert after recovery: %v", err)
	}
}

// TestDurablePoolImportBatchIdenticalReplayWritesNothing proves the
// skip-identical import at the durability layer: after a batch lands,
// re-importing it byte-identically appends NOTHING to the write-ahead
// log. The proof arms the injectable fsync-failure hook — any append
// would poison the log and error — and the replay must still succeed,
// while a genuinely changed entry under the same hook must fail.
func TestDurablePoolImportBatchIdenticalReplayWritesNothing(t *testing.T) {
	ov := newDurableTestOverlay(t)
	dir := t.TempDir()
	var failSync atomic.Bool
	dp, _ := openDurable(t, ov, dir, DurableConfig{
		Fsync: FsyncBatch,
		WALSyncErr: func() error {
			if failSync.Load() {
				return errors.New("injected fsync failure")
			}
			return nil
		},
	})
	defer dp.Close()

	var entries []ReplicaEntry
	for i := 0; i < 24; i++ {
		entries = append(entries, ReplicaEntry{
			Origin: 1, Key: NewID(fmt.Sprintf("replay-durable-%d", i)), Value: []byte(fmt.Sprintf("v-%d", i)),
		})
	}
	if accepted, fresh, err := dp.ImportBatch(entries); err != nil || accepted != len(entries) || fresh != len(entries) {
		t.Fatalf("first import: accepted %d fresh %d err %v", accepted, fresh, err)
	}
	before, after := dp.log.Bounds()
	_ = before

	// Every fsync now fails. An identical replay must not notice: no
	// record is appended, so the poisoned-sync path never runs.
	failSync.Store(true)
	if accepted, fresh, err := dp.ImportBatch(entries); err != nil || accepted != len(entries) || fresh != 0 {
		t.Fatalf("identical replay under failing fsync: accepted %d fresh %d err %v", accepted, fresh, err)
	}
	if _, a := dp.log.Bounds(); a != after {
		t.Fatalf("identical replay appended to the log: seq %d -> %d", after, a)
	}

	// A changed entry DOES need an append, which must now fail — and
	// the write-ahead contract holds: the failed entry is not applied.
	changed := []ReplicaEntry{{Origin: 1, Key: entries[5].Key, Value: []byte("new")}}
	if _, _, err := dp.ImportBatch(changed); err == nil {
		t.Fatal("changed import under failing fsync succeeded")
	}
	if v, ok := dp.Value(changed[0].Key); !ok || string(v) == "new" {
		t.Fatalf("failed import applied anyway: ok=%v v=%q", ok, v)
	}
}

// TestDurablePoolRecoveryExactOnAnyOverlay pins exact recovery over a
// tie-heavy power-law overlay, where re-routing a replayed insert could
// once land it elsewhere: a snapshot taken mid-run plus the log tail
// after it, recovered after an abandoned (SIGKILL-equivalent) pool,
// reproduce the pre-crash store entry for entry, byte for byte.
func TestDurablePoolRecoveryExactOnAnyOverlay(t *testing.T) {
	ov, err := PowerLawOverlay(300, 7)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	dp, _ := openDurable(t, ov, dir, DurableConfig{Fsync: FsyncBatch})
	mutate := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			k := NewID(fmt.Sprintf("tie-%d", i%150))
			var err error
			switch i % 4 {
			case 0, 1:
				_, err = dp.Insert(i%ov.N(), k, []byte(fmt.Sprintf("v-%d", i)))
			case 2:
				_, err = dp.Delete((i-2)%ov.N(), k)
			case 3:
				err = dp.ImportReplica(0, uint32(i%ov.N()), k, []byte(fmt.Sprintf("x-%d", i)))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	dump := func(p *Pool) []byte {
		var b []byte
		p.ForEachReplica(func(origin uint32, key ID, value []byte) {
			b = fmt.Appendf(b, "%d %x %q\n", origin, key, value)
		})
		return b
	}
	mutate(0, 400)
	for i := 0; i < dp.NumShards(); i++ {
		if err := dp.snapshotShard(i); err != nil {
			t.Fatal(err)
		}
	}
	mutate(400, 900)
	want := dump(dp.Pool)

	dp2, stats := openDurable(t, ov, dir, DurableConfig{Fsync: FsyncBatch})
	defer dp2.Close()
	if stats.SnapshotEntries == 0 || stats.Replayed == 0 {
		t.Fatalf("recovery used snapshots %d and replay %d, want both", stats.SnapshotEntries, stats.Replayed)
	}
	if got := dump(dp2.Pool); !bytes.Equal(got, want) {
		t.Fatalf("recovered store differs from the pre-crash store:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
}
