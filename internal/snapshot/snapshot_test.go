package snapshot

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"discovery/internal/idspace"
)

func testEntries(n int) []Entry {
	out := make([]Entry, n)
	for i := range out {
		out[i] = Entry{
			Origin: uint32(i),
			Key:    idspace.FromString(fmt.Sprintf("snap-key-%d", i)),
			Value:  []byte(fmt.Sprintf("value-%d", i)),
		}
	}
	return out
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	entries := testEntries(17)
	entries[3].Value = nil // empty values must round-trip too
	data := Append(nil, 5, 4242, entries)
	shard, seq, got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if shard != 5 || seq != 4242 {
		t.Fatalf("shard=%d seq=%d", shard, seq)
	}
	if len(got) != len(entries) {
		t.Fatalf("%d entries, want %d", len(got), len(entries))
	}
	for i := range entries {
		if got[i].Origin != entries[i].Origin ||
			got[i].Key != entries[i].Key || !bytes.Equal(got[i].Value, entries[i].Value) {
			t.Fatalf("entry %d mismatch: %+v vs %+v", i, got[i], entries[i])
		}
	}
	// Canonical: a decoded snapshot re-encodes to the same bytes.
	if again := Append(nil, shard, seq, got); !bytes.Equal(again, data) {
		t.Fatal("re-encode differs from original")
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	data := Append(nil, 1, 7, testEntries(4))
	if _, _, _, err := Decode(data[:10]); err != ErrShort {
		t.Fatalf("short: %v", err)
	}
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, _, _, err := Decode(bad); err != ErrMagic {
		t.Fatalf("magic: %v", err)
	}
	bad = append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x01
	if _, _, _, err := Decode(bad); err != ErrChecksum {
		t.Fatalf("flipped byte: %v", err)
	}
	if _, _, _, err := Decode(append(append([]byte(nil), data...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestWriteLoadNewestWins(t *testing.T) {
	dir := t.TempDir()
	if err := Write(dir, 2, 10, testEntries(3)); err != nil {
		t.Fatal(err)
	}
	if err := Write(dir, 2, 25, testEntries(6)); err != nil {
		t.Fatal(err)
	}
	// Another shard's snapshot must not be picked up.
	if err := Write(dir, 3, 99, testEntries(1)); err != nil {
		t.Fatal(err)
	}
	entries, seq, err := Load(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 25 || len(entries) != 6 {
		t.Fatalf("loaded seq=%d entries=%d, want 25/6", seq, len(entries))
	}
}

func TestLoadSkipsCorruptToOlder(t *testing.T) {
	dir := t.TempDir()
	if err := Write(dir, 0, 10, testEntries(3)); err != nil {
		t.Fatal(err)
	}
	if err := Write(dir, 0, 20, testEntries(5)); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest file in place.
	newest := filepath.Join(dir, fileName(0, 20))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	entries, seq, err := Load(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 10 || len(entries) != 3 {
		t.Fatalf("fallback loaded seq=%d entries=%d, want 10/3", seq, len(entries))
	}
}

func TestLoadIgnoresTmpAndMissingDir(t *testing.T) {
	dir := t.TempDir()
	// A torn write leaves only a tmp file; Load must see no snapshot.
	tmp := filepath.Join(dir, fileName(1, 5)+".tmp")
	if err := os.WriteFile(tmp, Append(nil, 1, 5, testEntries(2)), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, seq, err := Load(dir, 1)
	if err != nil || entries != nil || seq != 0 {
		t.Fatalf("tmp file loaded: %d entries seq=%d err=%v", len(entries), seq, err)
	}
	// A directory that does not exist yet is "no snapshot", not an error.
	if entries, seq, err := Load(filepath.Join(dir, "nope"), 0); err != nil || entries != nil || seq != 0 {
		t.Fatalf("missing dir: %d entries seq=%d err=%v", len(entries), seq, err)
	}
}

func TestGCKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	for _, seq := range []uint64{5, 10, 15} {
		if err := Write(dir, 4, seq, testEntries(1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := GC(dir, 4, 15); err != nil {
		t.Fatal(err)
	}
	cands, err := list(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 || cands[0].seq != 15 {
		t.Fatalf("after GC: %v", cands)
	}
	// GC for one shard must not touch another's files.
	if err := Write(dir, 6, 3, testEntries(1)); err != nil {
		t.Fatal(err)
	}
	if err := GC(dir, 4, 100); err != nil {
		t.Fatal(err)
	}
	if got, seq, err := Load(dir, 6); err != nil || seq != 3 || len(got) != 1 {
		t.Fatalf("cross-shard GC damage: %d entries seq=%d err=%v", len(got), seq, err)
	}
}

// FuzzDecode pins that decoding arbitrary bytes never panics and that a
// successful decode is canonical (re-encodes to the input).
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add(Append(nil, 0, 0, nil))
	f.Add(Append(nil, 3, 77, testEntries(5)))
	f.Fuzz(func(t *testing.T, data []byte) {
		shard, seq, entries, err := Decode(data)
		if err != nil {
			return
		}
		if !bytes.Equal(Append(nil, shard, seq, entries), data) {
			t.Fatal("accepted snapshot does not re-encode to itself")
		}
		// And the decode is stable.
		s2, q2, e2, err := Decode(data)
		if err != nil || s2 != shard || q2 != seq || !reflect.DeepEqual(entries, e2) {
			t.Fatal("decode not deterministic")
		}
	})
}
