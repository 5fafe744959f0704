package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// collect replays the whole log into a seq->payload copy map.
func collect(t testing.TB, l *Log) map[uint64][]byte {
	t.Helper()
	first, _ := l.Bounds()
	got := map[uint64][]byte{}
	err := l.Replay(first, func(seq uint64, payload []byte) error {
		got[seq] = append([]byte(nil), payload...)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

func payloadFor(i int) []byte {
	return []byte(fmt.Sprintf("record-%d-%s", i, string(bytes.Repeat([]byte{byte('a' + i%26)}, i%40))))
}

func TestAppendReplayRoundTrip(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		seq, err := l.Append(payloadFor(i))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("append %d got seq %d", i, seq)
		}
	}
	first, next := l.Bounds()
	if first != 1 || next != n+1 {
		t.Fatalf("bounds = [%d,%d), want [1,%d)", first, next, n+1)
	}
	got := collect(t, l)
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(got[uint64(i+1)], payloadFor(i)) {
			t.Fatalf("record %d payload mismatch", i+1)
		}
	}
	// Replay from the middle sees only the suffix.
	count := 0
	if err := l.Replay(51, func(seq uint64, _ []byte) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 50 {
		t.Fatalf("replay from 51 yielded %d records, want 50", count)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("x")); err != ErrClosed {
		t.Fatalf("append after close: %v", err)
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Append(payloadFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, err = Open(dir, Options{Sync: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	first, next := l.Bounds()
	if first != 1 || next != 11 {
		t.Fatalf("bounds after reopen = [%d,%d)", first, next)
	}
	seq, err := l.Append([]byte("more"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 11 {
		t.Fatalf("append after reopen got seq %d, want 11", seq)
	}
	if got := collect(t, l); len(got) != 11 || string(got[11]) != "more" {
		t.Fatalf("replay after reopen: %d records, rec11=%q", len(got), got[11])
	}
}

func TestRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncOff, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	for i := 0; i < n; i++ {
		if _, err := l.Append(payloadFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %d", len(segs))
	}
	if got := collect(t, l); len(got) != n {
		t.Fatalf("replayed %d records across segments, want %d", len(got), n)
	}

	// Truncate below the middle: whole segments below the cutoff go away.
	if err := l.TruncateBefore(n / 2); err != nil {
		t.Fatal(err)
	}
	first, next := l.Bounds()
	if first <= 1 || first > n/2 || next != n+1 {
		t.Fatalf("bounds after truncate = [%d,%d)", first, next)
	}
	if err := l.Replay(1, func(uint64, []byte) error { return nil }); err != ErrTruncated {
		t.Fatalf("replay before first: %v, want ErrTruncated", err)
	}
	count := 0
	if err := l.Replay(first, func(uint64, []byte) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != int(next-first) {
		t.Fatalf("replayed %d, want %d", count, next-first)
	}

	// Truncating the entire log rotates the active segment away.
	if err := l.TruncateBefore(next); err != nil {
		t.Fatal(err)
	}
	first2, next2 := l.Bounds()
	if first2 != next2 || next2 != next {
		t.Fatalf("bounds after full truncate = [%d,%d), want empty at %d", first2, next2, next)
	}
	seq, err := l.Append([]byte("after-truncate"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != next {
		t.Fatalf("append after full truncate got %d, want %d", seq, next)
	}
	l.Close()

	// Reopen sees only the post-truncation state.
	l, err = Open(dir, Options{Sync: SyncOff, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got := collect(t, l)
	if len(got) != 1 || string(got[seq]) != "after-truncate" {
		t.Fatalf("after reopen: %d records", len(got))
	}
}

// lastSegment returns the path of the newest segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("listSegments: %v (%d)", err, len(segs))
	}
	return segs[len(segs)-1].path
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := l.Append(payloadFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Chop a few bytes off the tail: the last record is torn.
	path := lastSegment(t, dir)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	l, err = Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	first, next := l.Bounds()
	if first != 1 || next != 20 {
		t.Fatalf("bounds after torn tail = [%d,%d), want [1,20)", first, next)
	}
	if got := collect(t, l); len(got) != 19 {
		t.Fatalf("recovered %d records, want 19", len(got))
	}
	// The truncated slot is reused by the next append.
	if seq, err := l.Append([]byte("replacement")); err != nil || seq != 20 {
		t.Fatalf("append after torn recovery: seq=%d err=%v", seq, err)
	}
}

func TestCorruptTailDropped(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Append(payloadFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Flip a byte inside the last record's payload.
	path := lastSegment(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l, err = Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, next := l.Bounds(); next != 10 {
		t.Fatalf("next after corrupt tail = %d, want 10", next)
	}
	if got := collect(t, l); len(got) != 9 {
		t.Fatalf("recovered %d records, want 9", len(got))
	}
}

func TestMidLogCorruptionDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncOff, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := l.Append(payloadFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("need >=3 segments, got %d", len(segs))
	}

	// Corrupt the middle of the FIRST segment: recovery must keep only
	// the records before the damage and delete every later segment.
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(segs[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l, err = Open(dir, Options{Sync: SyncOff, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	first, next := l.Bounds()
	if first != 1 {
		t.Fatalf("first = %d", first)
	}
	if next >= 64 {
		t.Fatalf("next = %d, corruption should have cost records", next)
	}
	got := collect(t, l)
	if len(got) != int(next-1) {
		t.Fatalf("recovered %d records for bounds [1,%d)", len(got), next)
	}
	for seq, p := range got {
		if !bytes.Equal(p, payloadFor(int(seq-1))) {
			t.Fatalf("surviving record %d corrupted", seq)
		}
	}
	left, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 {
		t.Fatalf("later segments not deleted: %d remain", len(left))
	}
}

func TestConcurrentGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 50
	var wg sync.WaitGroup
	seqs := make([][]uint64, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seq, err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				seqs[w] = append(seqs[w], seq)
			}
		}(w)
	}
	wg.Wait()

	// Sequence numbers are unique and dense across writers.
	seen := map[uint64]bool{}
	for _, ss := range seqs {
		for _, s := range ss {
			if seen[s] {
				t.Fatalf("seq %d assigned twice", s)
			}
			seen[s] = true
		}
	}
	if len(seen) != writers*per {
		t.Fatalf("%d seqs for %d appends", len(seen), writers*per)
	}
	l.Close()

	l, err = Open(dir, Options{Sync: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := collect(t, l); len(got) != writers*per {
		t.Fatalf("recovered %d records, want %d", len(got), writers*per)
	}
}

func TestAppendTooLarge(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(make([]byte, MaxPayload+1)); err != ErrTooLarge {
		t.Fatalf("oversize append: %v", err)
	}
	// Empty payloads are legal.
	if seq, err := l.Append(nil); err != nil || seq != 1 {
		t.Fatalf("empty append: seq=%d err=%v", seq, err)
	}
}

func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	// Snapshots and manifests share the directory; garbage names too.
	for _, name := range []string{"MANIFEST", "snap-0001-00000000000000000005.snap", "wal-12.seg", "wal-x.seg", "wal-00000000000000000001.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if seq, err := l.Append([]byte("v")); err != nil || seq != 1 {
		t.Fatalf("append: seq=%d err=%v", seq, err)
	}
	for _, name := range []string{"MANIFEST", "snap-0001-00000000000000000005.snap"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("foreign file %s touched: %v", name, err)
		}
	}
}

func TestAppendZeroAllocs(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte{0xAB}, 64)
	// Warm the scratch buffer.
	if _, err := l.Append(payload); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Append allocates %.1f per op, want 0", allocs)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
	}{{"batch", SyncBatch}, {"off", SyncOff}} {
		p, err := ParsePolicy(tc.in)
		if err != nil || p != tc.want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", tc.in, p, err)
		}
		if p.String() != tc.in {
			t.Fatalf("Policy(%q).String() = %q", tc.in, p.String())
		}
	}
	for _, bad := range []string{"always", "sometimes"} {
		if _, err := ParsePolicy(bad); err == nil || !strings.Contains(err.Error(), "batch, off") {
			t.Fatalf("ParsePolicy(%q) = %v, want an error naming batch, off", bad, err)
		}
	}
}

func TestSyncBatchDurable(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append(payloadFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: reopening must still see every appended record, because
	// SyncBatch fsynced each one before Append returned.
	l2, err := Open(dir, Options{Sync: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := collect(t, l2); len(got) != 5 {
		t.Fatalf("recovered %d records without Close, want 5", len(got))
	}
	l.Close()
}

func TestAppendBatchRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	// Mixed single appends and batches: sequence numbers stay dense and
	// consecutive within each batch.
	if seq, err := l.Append(payloadFor(0)); err != nil || seq != 1 {
		t.Fatalf("append: seq=%d err=%v", seq, err)
	}
	batch := [][]byte{payloadFor(1), payloadFor(2), payloadFor(3)}
	first, err := l.AppendBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if first != 2 {
		t.Fatalf("batch first = %d, want 2", first)
	}
	if first, err := l.AppendBatch(nil); err != nil || first != 0 {
		t.Fatalf("empty batch: first=%d err=%v", first, err)
	}
	if seq, err := l.Append(payloadFor(4)); err != nil || seq != 5 {
		t.Fatalf("append after batch: seq=%d err=%v", seq, err)
	}
	l.Close()

	// Reopen without a clean shutdown marker: every batched record was
	// made durable by the shared fsync before AppendBatch returned.
	l, err = Open(dir, Options{Sync: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got := collect(t, l)
	if len(got) != 5 {
		t.Fatalf("recovered %d records, want 5", len(got))
	}
	for i := 0; i < 5; i++ {
		if !bytes.Equal(got[uint64(i+1)], payloadFor(i)) {
			t.Fatalf("record %d payload mismatch", i+1)
		}
	}
}

func TestAppendBatchRotates(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncOff, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var batch [][]byte
	for i := 0; i < 64; i++ {
		batch = append(batch, payloadFor(i))
	}
	// Several batches, each larger than a segment: rotation must keep up
	// and replay must still see every record in order.
	for round := 0; round < 3; round++ {
		if _, err := l.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("batches never rotated: %d segments", len(segs))
	}
	got := collect(t, l)
	if len(got) != 3*64 {
		t.Fatalf("recovered %d records, want %d", len(got), 3*64)
	}
	for seq, p := range got {
		if !bytes.Equal(p, payloadFor(int((seq-1)%64))) {
			t.Fatalf("record %d payload mismatch", seq)
		}
	}
}

func TestAppendBatchTornMidBatch(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch([][]byte{payloadFor(0), payloadFor(1), payloadFor(2), payloadFor(3)}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Tear the segment in the middle of the batch: recovery must keep the
	// batch's valid prefix and reuse the torn sequence numbers, exactly
	// like a crash between a batched write and its ack.
	path := lastSegment(t, dir)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-int64(len(payloadFor(3)))-3); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	first, next := l.Bounds()
	if first != 1 || next != 4 {
		t.Fatalf("bounds after torn batch = [%d,%d), want [1,4)", first, next)
	}
	got := collect(t, l)
	if len(got) != 3 {
		t.Fatalf("recovered %d records, want 3", len(got))
	}
	if seq, err := l.Append([]byte("reuse")); err != nil || seq != 4 {
		t.Fatalf("append after torn batch: seq=%d err=%v", seq, err)
	}
}

func TestAppendBatchTooLarge(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// An oversize payload anywhere in the batch rejects the whole batch
	// before any sequence number is assigned.
	_, err = l.AppendBatch([][]byte{[]byte("ok"), make([]byte, MaxPayload+1)})
	if err != ErrTooLarge {
		t.Fatalf("oversize batch: %v", err)
	}
	if seq, err := l.Append([]byte("v")); err != nil || seq != 1 {
		t.Fatalf("append after rejected batch: seq=%d err=%v", seq, err)
	}
}

func TestAppendBatchZeroAllocs(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payloads := [][]byte{
		bytes.Repeat([]byte{0xAB}, 64),
		bytes.Repeat([]byte{0xCD}, 48),
		bytes.Repeat([]byte{0xEF}, 80),
	}
	// Warm the scratch buffer.
	if _, err := l.AppendBatch(payloads); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := l.AppendBatch(payloads); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendBatch allocates %.1f per op, want 0", allocs)
	}
}

// TestSyncErrHookPoisonsLog proves the injectable fsync-failure hook
// behaves exactly like a real fsync(2) failure: the failing append is
// not acked, the log poisons itself with a sticky error, and clearing
// the hook does not revive it — only a reopen (fresh recovery) does. It
// runs on the group-commit path, the one every append takes.
func TestSyncErrHookPoisonsLog(t *testing.T) {
	dir := t.TempDir()
	boom := fmt.Errorf("injected fsync failure")
	var fail atomic.Bool
	hook := func() error {
		if fail.Load() {
			return boom
		}
		return nil
	}
	l, err := Open(dir, Options{Sync: SyncBatch, SyncErr: hook})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("durable")); err != nil {
		t.Fatalf("healthy append: %v", err)
	}
	fail.Store(true)
	if _, err := l.Append([]byte("lost")); err != boom {
		t.Fatalf("failing append: err = %v, want injected error", err)
	}
	// Sticky: further appends fail without reaching the hook...
	if _, err := l.Append([]byte("refused")); err == nil {
		t.Fatal("append after poison succeeded")
	}
	// ...and healing the hook does not un-poison the log.
	fail.Store(false)
	if _, err := l.Append([]byte("still-refused")); err == nil {
		t.Fatal("append after hook heal succeeded; poison must be sticky")
	}
	l.Close()

	// Reopen recovers: the acked record must be there. The failed-sync
	// record may or may not survive (unknown outcome, same as a crash
	// between append and ack) — assert nothing about it beyond the log
	// accepting appends again.
	l, err = Open(dir, Options{Sync: SyncBatch})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	got := collect(t, l)
	if !bytes.Equal(got[1], []byte("durable")) {
		t.Fatalf("acked record missing after reopen: %q", got[1])
	}
	if _, err := l.Append([]byte("recovered")); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
}

// TestSyncErrHookGroupCommit drives the hook through the SyncBatch
// group-commit path: the elected leader's fsync fails and every waiter
// sharing that commit gets the error, none are acked.
func TestSyncErrHookGroupCommit(t *testing.T) {
	dir := t.TempDir()
	var fail atomic.Bool
	l, err := Open(dir, Options{Sync: SyncBatch, SyncErr: func() error {
		if fail.Load() {
			return fmt.Errorf("injected group-commit failure")
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append([]byte("ok")); err != nil {
		t.Fatalf("healthy group commit: %v", err)
	}
	fail.Store(true)
	const writers = 4
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = l.Append(payloadFor(i))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("writer %d was acked through a failed group commit", i)
		}
	}
}
