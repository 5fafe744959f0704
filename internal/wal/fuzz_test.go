package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// validSegmentBytes builds an intact segment holding n small records.
func validSegmentBytes(n int) []byte {
	var buf bytes.Buffer
	var hdr [segHdrLen]byte
	copy(hdr[:8], segMagic)
	hdr[15] = 1 // firstSeq = 1
	buf.Write(hdr[:])
	for i := 0; i < n; i++ {
		buf.Write(appendRecord(nil, uint64(i+1), payloadFor(i)))
	}
	return buf.Bytes()
}

// FuzzWALDecode feeds arbitrary bytes to recovery as a segment file.
// Whatever the input, Open must succeed (recovery never fails on
// content), every surviving record must replay with a matching
// checksum, and the log must keep accepting appends that survive a
// reopen.
func FuzzWALDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(segMagic))
	full := validSegmentBytes(8)
	f.Add(full)
	f.Add(full[:len(full)-5])         // torn tail
	f.Add(append(full, 0x00))         // trailing garbage
	f.Add(append(full, full[16:]...)) // duplicated records (seq mismatch)
	mangled := append([]byte(nil), full...)
	mangled[len(mangled)/2] ^= 0x40
	f.Add(mangled) // mid-segment corruption

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal-00000000000000000001.seg"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{Sync: SyncOff})
		if err != nil {
			t.Fatalf("Open on arbitrary bytes: %v", err)
		}
		first, next := l.Bounds()
		if next < first {
			t.Fatalf("bounds inverted: [%d,%d)", first, next)
		}
		count := uint64(0)
		if err := l.Replay(first, func(seq uint64, payload []byte) error {
			if seq != first+count {
				t.Fatalf("replay seq %d, want %d", seq, first+count)
			}
			count++
			return nil
		}); err != nil {
			t.Fatalf("replay of recovered log: %v", err)
		}
		if count != next-first {
			t.Fatalf("replayed %d records, bounds say %d", count, next-first)
		}
		// The recovered log must be appendable, and the append durable.
		seq, err := l.Append([]byte("probe"))
		if err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if seq != next {
			t.Fatalf("append seq %d, want %d", seq, next)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		l2, err := Open(dir, Options{Sync: SyncOff})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer l2.Close()
		if _, next2 := l2.Bounds(); next2 != seq+1 {
			t.Fatalf("reopen lost the probe record: next=%d, want %d", next2, seq+1)
		}
	})
}
