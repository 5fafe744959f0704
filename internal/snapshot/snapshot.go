// Package snapshot persists a shard's full key→entry state as one
// atomic, checksummed file, enabling write-ahead-log truncation: once a
// snapshot at sequence number S is durable, every log record with
// seq <= S for that shard is redundant.
//
// # Format
//
// A snapshot file is:
//
//	| magic "MPILSNP2" | u32 shard | u64 seq | u32 count |
//	| entries... |
//	| u32 crc32c |
//
// where each entry is:
//
//	| u32 origin | key[20] | u32 valueLen | value |
//
// All integers are big-endian; the trailing CRC (Castagnoli) covers every
// preceding byte. Decoding is strict — the advertised count must match
// the bytes exactly — and never panics on arbitrary input (FuzzDecode).
//
// # Atomicity
//
// Write encodes into a temporary file in the target directory, fsyncs it,
// renames it to its final name snap-<shard>-<seq>.snap, and fsyncs the
// directory. A crash mid-write leaves only a *.tmp file, which Load
// ignores, so a visible snapshot is always complete. Load picks the
// newest (highest-seq) snapshot that validates, skipping damaged files.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"discovery/internal/idspace"
	"discovery/internal/wal"
)

const (
	magic  = "MPILSNP2"
	hdrLen = 8 + 4 + 8 + 4 // magic | shard | seq | count
	// entryFixed is an entry's size excluding its value bytes.
	entryFixed = 4 + idspace.Bytes + 4

	// MaxValue bounds a single entry's value, mirroring wire.MaxFrame so
	// any payload accepted over the wire snapshots cleanly.
	MaxValue = 1 << 21
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Decode errors, predeclared following the internal/wire discipline.
var (
	ErrShort    = errors.New("snapshot: truncated")
	ErrMagic    = errors.New("snapshot: bad magic")
	ErrChecksum = errors.New("snapshot: checksum mismatch")
	ErrTrailing = errors.New("snapshot: trailing bytes after entries")
	ErrValue    = errors.New("snapshot: entry value exceeds MaxValue")
)

// Entry is one stored key: its value, held on behalf of the inserting
// Origin.
type Entry struct {
	// Node is neither written nor read back. It remains only because the
	// benchmark's snapshot probe (bench/probes.go) still sets it.
	Node   uint32
	Origin uint32
	Key    idspace.ID
	Value  []byte
}

// Append encodes a snapshot of entries onto dst and returns the extended
// slice.
func Append(dst []byte, shard uint32, seq uint64, entries []Entry) []byte {
	base := len(dst)
	dst = append(dst, magic...)
	dst = binary.BigEndian.AppendUint32(dst, shard)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(entries)))
	for i := range entries {
		e := &entries[i]
		dst = binary.BigEndian.AppendUint32(dst, e.Origin)
		dst = append(dst, e.Key[:]...)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(e.Value)))
		dst = append(dst, e.Value...)
	}
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[base:], castagnoli))
}

// Decode parses a complete snapshot image. Returned entries own their
// value bytes (they do not alias data). It is strict and never panics on
// arbitrary input.
func Decode(data []byte) (shard uint32, seq uint64, entries []Entry, err error) {
	if len(data) < hdrLen+4 {
		return 0, 0, nil, ErrShort
	}
	if string(data[:8]) != magic {
		return 0, 0, nil, ErrMagic
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if binary.BigEndian.Uint32(tail) != crc32.Checksum(body, castagnoli) {
		return 0, 0, nil, ErrChecksum
	}
	shard = binary.BigEndian.Uint32(data[8:12])
	seq = binary.BigEndian.Uint64(data[12:20])
	count := binary.BigEndian.Uint32(data[20:24])
	rest := body[hdrLen:]
	// A lying count cannot force a huge allocation: every entry consumes
	// at least entryFixed bytes of input.
	if uint64(count)*entryFixed > uint64(len(rest)) {
		return 0, 0, nil, ErrShort
	}
	entries = make([]Entry, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(rest) < entryFixed {
			return 0, 0, nil, ErrShort
		}
		var e Entry
		e.Origin = binary.BigEndian.Uint32(rest[0:4])
		copy(e.Key[:], rest[4:4+idspace.Bytes])
		vlen := binary.BigEndian.Uint32(rest[4+idspace.Bytes:])
		if vlen > MaxValue {
			return 0, 0, nil, ErrValue
		}
		rest = rest[entryFixed:]
		if uint64(len(rest)) < uint64(vlen) {
			return 0, 0, nil, ErrShort
		}
		if vlen > 0 {
			e.Value = append([]byte(nil), rest[:vlen]...)
		}
		rest = rest[vlen:]
		entries = append(entries, e)
	}
	if len(rest) != 0 {
		return 0, 0, nil, ErrTrailing
	}
	return shard, seq, entries, nil
}

// fileName names shard's snapshot at seq.
func fileName(shard uint32, seq uint64) string {
	return fmt.Sprintf("snap-%04d-%020d.snap", shard, seq)
}

// Write atomically persists shard's snapshot at seq into dir: encode,
// write to a temporary file, fsync, rename into place, fsync the
// directory. On return the snapshot is durable and visible to Load.
func Write(dir string, shard uint32, seq uint64, entries []Entry) error {
	data := Append(nil, shard, seq, entries)
	final := filepath.Join(dir, fileName(shard, seq))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	return wal.SyncDir(dir)
}

// snapFile is one candidate snapshot found by list.
type snapFile struct {
	path string
	seq  uint64
}

// list returns shard's snapshot files in dir, newest first.
func list(dir string, shard uint32) ([]snapFile, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	prefix := fmt.Sprintf("snap-%04d-", shard)
	var out []snapFile
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".snap") {
			continue
		}
		num := strings.TrimSuffix(strings.TrimPrefix(name, prefix), ".snap")
		seq, err := strconv.ParseUint(num, 10, 64)
		if err != nil || len(num) != 20 {
			continue
		}
		out = append(out, snapFile{path: filepath.Join(dir, name), seq: seq})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq > out[j].seq })
	return out, nil
}

// Load returns shard's newest valid snapshot: its entries and the log
// sequence number it covers. Damaged candidates are skipped (newest
// valid wins); (nil, 0, nil) means no snapshot exists. Entries own their
// value bytes.
func Load(dir string, shard uint32) ([]Entry, uint64, error) {
	cands, err := list(dir, shard)
	if err != nil {
		return nil, 0, err
	}
	for _, c := range cands {
		data, err := os.ReadFile(c.path)
		if err != nil {
			continue
		}
		gotShard, seq, entries, err := Decode(data)
		if err != nil || gotShard != shard || seq != c.seq {
			continue
		}
		return entries, seq, nil
	}
	return nil, 0, nil
}

// GC deletes shard's snapshots older than keepSeq, keeping the newest
// one at or above it. Call it after a fresh snapshot lands.
func GC(dir string, shard uint32, keepSeq uint64) error {
	cands, err := list(dir, shard)
	if err != nil {
		return err
	}
	removed := false
	for _, c := range cands {
		if c.seq < keepSeq {
			if err := os.Remove(c.path); err != nil {
				return err
			}
			removed = true
		}
	}
	if removed {
		return wal.SyncDir(dir)
	}
	return nil
}
