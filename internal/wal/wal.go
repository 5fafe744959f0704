// Package wal is an append-only, segmented, checksummed write-ahead log:
// the durability layer beneath discovery.Pool's in-memory shard stores.
//
// The log stores opaque payloads. Every record is assigned a dense,
// monotonically increasing sequence number; the caller decides what a
// payload means (discovery encodes shard-tagged Insert/Delete operations).
// Like internal/wire, the codec is strict, canonical, never panics on
// arbitrary bytes, and the steady-state append path performs zero heap
// allocations: records are framed into a reused scratch buffer and handed
// to the OS with a single write.
//
// # On-disk layout
//
// A log is a directory of segment files named wal-<firstSeq>.seg, where
// <firstSeq> is the 20-digit decimal sequence number of the segment's
// first record. Each segment is:
//
//	| magic "MPILWAL1" | u64 firstSeq |          (16-byte header)
//	| u32 payloadLen | u32 crc32c | u64 seq | payload |   (records)
//
// All integers are big-endian. The CRC (Castagnoli polynomial) covers the
// seq field and the payload, so a record that survives validation is both
// intact and in its claimed position; sequence numbers must be dense
// within and across segments.
//
// # Recovery
//
// Open scans every segment and stops at the first invalid byte: a short
// header, a CRC mismatch, a sequence discontinuity, or a truncated tail.
// Everything before that point is kept, the torn tail is truncated away,
// and any later segments (which cannot be reconciled once the chain is
// broken) are deleted. Recovery therefore always succeeds on arbitrary
// input and always yields a valid prefix of what was appended — the
// property FuzzWALDecode pins.
//
// # Durability policies
//
// SyncBatch is group commit: the append is written immediately, then the
// caller waits until some fsync covers its record; one "leader" fsyncs on
// behalf of every append that landed before it, so concurrent writers
// (the pool's shard workers) amortize syncs while keeping the acked ⇒
// durable guarantee.
// SyncOff never fsyncs: records still reach the kernel before the append
// returns (surviving a process crash) but can be lost to a power failure.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"discovery/internal/metrics"
)

const (
	segMagic  = "MPILWAL1"
	segHdrLen = 8 + 8     // magic | u64 firstSeq
	recHdrLen = 4 + 4 + 8 // u32 payloadLen | u32 crc32c | u64 seq

	// MaxPayload bounds a single record's payload. It comfortably fits
	// any wire frame plus the operation header and bounds the allocation
	// a corrupt length field can force on recovery.
	MaxPayload = 1 << 21

	// DefaultSegmentBytes is the rotation threshold when Options leaves
	// SegmentBytes zero.
	DefaultSegmentBytes = 64 << 20

	// maxRetainedScratch caps the framing scratch kept between appends.
	// A batch of near-MaxPayload records can legitimately need tens of
	// megabytes once, but retaining that forever would pin the worst
	// batch ever seen; anything above the cap is dropped for the next
	// append to reallocate right-sized. The cap stays above MaxPayload
	// plus framing so the single-record path never thrashes.
	maxRetainedScratch = 4 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Policy selects when appends are fsynced.
type Policy uint8

// Durability policies.
const (
	// SyncBatch group-commits: an append returns only once an fsync
	// covers its record, but concurrent appenders share fsyncs.
	SyncBatch Policy = iota
	// SyncOff never fsyncs; data reaches the kernel but a power failure
	// may lose the tail. Process crashes (SIGKILL) lose nothing.
	SyncOff
)

// ParsePolicy parses the policy names used by command-line flags.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "batch":
		return SyncBatch, nil
	case "off":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want batch, off)", s)
}

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case SyncBatch:
		return "batch"
	case SyncOff:
		return "off"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// Log errors.
var (
	ErrClosed    = errors.New("wal: log closed")
	ErrTooLarge  = errors.New("wal: payload exceeds MaxPayload")
	ErrTruncated = errors.New("wal: requested records already truncated away")
)

// Options parameterizes Open.
type Options struct {
	// SegmentBytes is the rotation threshold: once the active segment
	// reaches it, the next append goes to a fresh segment. Zero selects
	// DefaultSegmentBytes.
	SegmentBytes int64
	// Sync is the durability policy applied by Append.
	Sync Policy
	// Metrics, when non-nil, receives the log's instrumentation:
	// wal.appends / wal.records / wal.fsyncs counters, and
	// wal.append_seconds / wal.fsync_seconds / wal.batch_records
	// histograms. A nil registry leaves the append path unmetered (the
	// nil metrics are no-ops), at no allocation either way.
	Metrics *metrics.Registry
	// SyncErr, when non-nil, is consulted before every fsync the append
	// path issues (Append, AppendBatch, Sync): a non-nil return is
	// treated exactly like a failed fsync(2) — the in-flight mutation is
	// not acked and the log poisons itself, refusing all further
	// appends. This is a fault-injection hook for chaos testing the
	// poison-on-sync-error contract end to end; production leaves it
	// nil. It does not fire on segment-seal or Close syncs, which are
	// not ack barriers.
	SyncErr func() error
}

// segment is one on-disk segment file.
type segment struct {
	path     string
	firstSeq uint64
}

// Log is an open write-ahead log. Append, Sync, Replay and TruncateBefore
// are safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File  // active segment
	size     int64     // bytes written to the active segment
	segs     []segment // ascending firstSeq; last is active
	firstSeq uint64    // oldest retained sequence number
	nextSeq  uint64    // sequence number the next append receives
	buf      []byte    // append framing scratch
	werr     error     // sticky write error; poisons the log
	closed   bool

	gc groupCommit

	// Instrumentation (nil-safe no-ops without Options.Metrics).
	appends      *metrics.Counter
	records      *metrics.Counter
	fsyncs       *metrics.Counter
	appendNanos  *metrics.Histogram // full append incl. durability wait
	fsyncNanos   *metrics.Histogram // each fsync issued on the append path
	batchRecords *metrics.Histogram // records per append call
}

// groupCommit is the leader/follower fsync state shared by SyncBatch
// appenders.
type groupCommit struct {
	mu        sync.Mutex
	cond      *sync.Cond
	syncedSeq uint64 // every record with seq <= syncedSeq is durable
	syncing   bool   // a leader's fsync is in flight
	err       error  // sticky fsync error
}

// Open opens (or creates) the log in dir, recovering to the last valid
// record: torn tails are truncated in place and unreconcilable later
// segments are deleted, so Open fails only on I/O errors, never on
// corrupt content.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts}
	l.gc.cond = sync.NewCond(&l.gc.mu)
	l.appends = opts.Metrics.Counter("wal.appends")
	l.records = opts.Metrics.Counter("wal.records")
	l.fsyncs = opts.Metrics.Counter("wal.fsyncs")
	l.appendNanos = opts.Metrics.Histogram("wal.append_seconds", 1e-9)
	l.fsyncNanos = opts.Metrics.Histogram("wal.fsync_seconds", 1e-9)
	l.batchRecords = opts.Metrics.Histogram("wal.batch_records", 1)

	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	// Walk the chain in order, stopping at the first invalid point.
	nextSeq := uint64(1)
	var valid []segment
	for k, sg := range segs {
		if k > 0 && sg.firstSeq != nextSeq {
			// Gap or overlap with the previous segment: unreconcilable.
			if err := removeSegments(dir, segs[k:]); err != nil {
				return nil, err
			}
			break
		}
		res, err := scanSegment(sg.path)
		if err != nil {
			return nil, err
		}
		if !res.hdrOK || res.firstSeq != sg.firstSeq {
			// A segment whose header never hit the disk holds only
			// records that were never acked; drop it and the rest.
			if err := removeSegments(dir, segs[k:]); err != nil {
				return nil, err
			}
			break
		}
		if res.validSize < res.fileSize {
			// Torn or corrupt tail: truncate to the last valid record
			// and drop everything after this segment.
			if err := os.Truncate(sg.path, res.validSize); err != nil {
				return nil, err
			}
			if err := removeSegments(dir, segs[k+1:]); err != nil {
				return nil, err
			}
			valid = append(valid, sg)
			nextSeq = sg.firstSeq + uint64(res.records)
			break
		}
		valid = append(valid, sg)
		nextSeq = sg.firstSeq + uint64(res.records)
	}
	l.segs = append([]segment(nil), valid...)
	l.nextSeq = nextSeq

	if len(l.segs) == 0 {
		if err := l.createSegmentLocked(l.nextSeq); err != nil {
			return nil, err
		}
	} else {
		active := l.segs[len(l.segs)-1]
		f, err := os.OpenFile(active.path, os.O_WRONLY, 0)
		if err != nil {
			return nil, err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.Seek(0, io.SeekEnd); err != nil {
			f.Close()
			return nil, err
		}
		l.f = f
		l.size = st.Size()
	}
	l.firstSeq = l.segs[0].firstSeq
	// Everything recovered from disk is as durable as it will get.
	l.gc.syncedSeq = l.nextSeq - 1
	return l, nil
}

// Bounds returns the retained sequence range: first is the oldest
// sequence number still on disk and next is the number the next append
// will receive. The log holds records [first, next); it is empty when
// first == next.
func (l *Log) Bounds() (first, next uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.firstSeq, l.nextSeq
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Append writes one record and returns its sequence number: an
// AppendBatch of one. Under SyncBatch the record is durable when Append
// returns; under SyncOff it has reached the kernel but not necessarily
// the disk.
func (l *Log) Append(payload []byte) (uint64, error) {
	return l.AppendBatch([][]byte{payload})
}

// AppendBatch writes one record per payload with consecutive sequence
// numbers, framed into a single buffer and handed to the OS with ONE
// write(2); the k-th payload receives sequence first+k. Under SyncBatch
// every record in the batch is durable when AppendBatch returns, and the
// whole batch shares one fsync with whatever concurrent batches from
// other appenders the group commit merges it with. An empty batch is a
// no-op returning (0, nil).
//
// A write failure poisons the log: no record in the batch was
// acknowledged, every later append returns the same error, and whatever
// prefix reached the disk is truncated or replayed by recovery exactly as
// a crash between append and ack would be.
func (l *Log) AppendBatch(payloads [][]byte) (first uint64, err error) {
	for _, p := range payloads {
		if len(p) > MaxPayload {
			return 0, ErrTooLarge
		}
	}
	if len(payloads) == 0 {
		return 0, nil
	}
	var start time.Time
	if l.appendNanos != nil {
		start = time.Now()
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	if l.werr != nil {
		err := l.werr
		l.mu.Unlock()
		return 0, err
	}
	if cap(l.buf) > maxRetainedScratch {
		l.buf = nil // an earlier giant batch grew it; start fresh
	}
	first = l.nextSeq
	l.buf = l.buf[:0]
	for k, p := range payloads {
		l.buf = appendRecord(l.buf, first+uint64(k), p)
	}
	if _, err := l.f.Write(l.buf); err != nil {
		// The file offset may now sit mid-record; anything appended after
		// it would be unreachable to recovery. Poison the log instead.
		l.werr = err
		l.mu.Unlock()
		return 0, err
	}
	l.nextSeq += uint64(len(payloads))
	l.size += int64(len(l.buf))
	if l.size >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.werr = err
			l.mu.Unlock()
			return 0, err
		}
	}
	l.mu.Unlock()
	if l.opts.Sync != SyncOff {
		if err := l.syncTo(first + uint64(len(payloads)) - 1); err != nil {
			return 0, err
		}
	}
	if l.appendNanos != nil {
		l.appendNanos.Observe(int64(time.Since(start)))
		l.appends.Inc()
		l.records.Add(uint64(len(payloads)))
		l.batchRecords.Observe(int64(len(payloads)))
	}
	return first, nil
}

// timedSync fsyncs f, metering duration and count when the log is
// instrumented. Every fsync issued on the append path goes through it,
// so Options.SyncErr injected here hits exactly the ack barrier.
func (l *Log) timedSync(f *os.File) error {
	if l.opts.SyncErr != nil {
		if err := l.opts.SyncErr(); err != nil {
			return err
		}
	}
	if l.fsyncNanos == nil {
		return f.Sync()
	}
	t := time.Now()
	err := f.Sync()
	l.fsyncNanos.Observe(int64(time.Since(t)))
	l.fsyncs.Inc()
	return err
}

// poison records a failed fsync as the log's sticky error so no further
// records are accepted: the kernel may have dropped the unsynced tail
// (fsync error semantics), so anything appended past this point could be
// unreachable to recovery. Callers whose mutation hit the failure treat
// the outcome as unknown — the record may or may not survive a crash,
// exactly like a crash between append and ack.
func (l *Log) poison(err error) {
	l.mu.Lock()
	if l.werr == nil {
		l.werr = err
	}
	l.mu.Unlock()
	l.gc.fail(err)
}

// syncTo blocks until an fsync covers seq, electing the first waiter as
// the leader that fsyncs on behalf of everyone queued behind it.
func (l *Log) syncTo(seq uint64) error {
	g := &l.gc
	g.mu.Lock()
	for g.err == nil && g.syncedSeq < seq {
		if g.syncing {
			g.cond.Wait()
			continue
		}
		g.syncing = true
		g.mu.Unlock()

		// Snapshot the active file and the highest written seq together:
		// records beyond the active file were fsynced at rotation, so one
		// fsync of the active file makes everything <= target durable.
		l.mu.Lock()
		f := l.f
		target := l.nextSeq - 1
		l.mu.Unlock()
		err := l.timedSync(f)

		if err != nil {
			// Poison before re-taking g.mu so every waiter (and every
			// future append) sees the failure.
			l.poison(err)
			g.mu.Lock()
			g.syncing = false
			g.cond.Broadcast()
			break
		}
		g.mu.Lock()
		g.syncing = false
		if target > g.syncedSeq {
			g.syncedSeq = target
		}
		g.cond.Broadcast()
	}
	err := g.err
	g.mu.Unlock()
	return err
}

// advance raises the durable watermark after an out-of-band fsync.
func (g *groupCommit) advance(seq uint64) {
	g.mu.Lock()
	if seq > g.syncedSeq {
		g.syncedSeq = seq
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

// fail records a sticky fsync error and wakes every waiter.
func (g *groupCommit) fail(err error) {
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

// Sync forces an fsync of the active segment regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	f := l.f
	target := l.nextSeq - 1
	l.mu.Unlock()
	if err := l.timedSync(f); err != nil {
		l.poison(err)
		return err
	}
	l.gc.advance(target)
	return nil
}

// Replay streams every retained record with seq >= from to fn in order.
// It returns ErrTruncated when from predates the oldest retained record
// (the caller is missing state that only a snapshot can supply). The
// payload passed to fn aliases an internal buffer valid only during the
// call. Replay snapshots the segment list up front, so it tolerates (but
// does not observe) appends issued while it runs.
func (l *Log) Replay(from uint64, fn func(seq uint64, payload []byte) error) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if from < l.firstSeq {
		l.mu.Unlock()
		return ErrTruncated
	}
	segs := append([]segment(nil), l.segs...)
	next := l.nextSeq
	l.mu.Unlock()

	var buf []byte
	for k, sg := range segs {
		// Skip segments that end before from.
		if k+1 < len(segs) && segs[k+1].firstSeq <= from {
			continue
		}
		if err := replaySegment(sg, from, next, fn, &buf); err != nil {
			return err
		}
	}
	return nil
}

// replaySegment feeds one segment's records in [from, next) to fn.
func replaySegment(sg segment, from, next uint64, fn func(uint64, []byte) error, buf *[]byte) error {
	f, err := os.Open(sg.path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 256<<10)
	var hdr [segHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("wal: %s: short header", sg.path)
	}
	want := sg.firstSeq
	var rh [recHdrLen]byte
	for want < next {
		if _, err := io.ReadFull(r, rh[:]); err != nil {
			if err == io.EOF {
				return nil // segment exhausted
			}
			return fmt.Errorf("wal: %s: record %d: %w", sg.path, want, err)
		}
		n := binary.BigEndian.Uint32(rh[0:4])
		crc := binary.BigEndian.Uint32(rh[4:8])
		seq := binary.BigEndian.Uint64(rh[8:16])
		if n > MaxPayload || seq != want {
			return fmt.Errorf("wal: %s: record %d: malformed header", sg.path, want)
		}
		if cap(*buf) < int(n) {
			*buf = make([]byte, n)
		}
		payload := (*buf)[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return fmt.Errorf("wal: %s: record %d: %w", sg.path, want, err)
		}
		if crc32.Update(crc32.Update(0, castagnoli, rh[8:16]), castagnoli, payload) != crc {
			return fmt.Errorf("wal: %s: record %d: checksum mismatch", sg.path, want)
		}
		if seq >= from {
			if err := fn(seq, payload); err != nil {
				return err
			}
		}
		want++
	}
	return nil
}

// TruncateBefore drops records with seq < seq, at segment granularity:
// only segments that lie entirely below seq are deleted, except that when
// seq covers the whole log the active segment is first rotated so it too
// can be dropped. Call it after a snapshot lands to bound recovery work.
func (l *Log) TruncateBefore(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if seq > l.nextSeq {
		seq = l.nextSeq
	}
	if seq == l.nextSeq && l.size > segHdrLen {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	changed := false
	for len(l.segs) >= 2 && l.segs[1].firstSeq <= seq {
		if err := os.Remove(l.segs[0].path); err != nil {
			return err
		}
		l.segs = l.segs[1:]
		changed = true
	}
	l.firstSeq = l.segs[0].firstSeq
	if changed {
		return SyncDir(l.dir)
	}
	return nil
}

// rotateLocked seals the active segment (fsync) and starts a fresh one.
// The caller holds l.mu. Sealing never rotates an empty segment.
func (l *Log) rotateLocked() error {
	if l.size <= segHdrLen {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	old := l.f
	if err := l.createSegmentLocked(l.nextSeq); err != nil {
		// l.f still points at the old segment; rotation retries next time.
		return err
	}
	old.Close()
	// Sealing fsynced everything before nextSeq; let group-commit
	// followers waiting on those records go.
	l.gc.advance(l.nextSeq - 1)
	return nil
}

// createSegmentLocked creates and activates a new segment whose first
// record will be firstSeq. The caller holds l.mu (or is Open).
func (l *Log) createSegmentLocked(firstSeq uint64) error {
	path := segPath(l.dir, firstSeq)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	var hdr [segHdrLen]byte
	copy(hdr[:8], segMagic)
	binary.BigEndian.PutUint64(hdr[8:], firstSeq)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	// The header must be durable before the file name is: a visible but
	// header-less segment would be dropped by recovery, rewinding the
	// sequence space below seqs that snapshots already pinned.
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := SyncDir(l.dir); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	l.f = f
	l.size = segHdrLen
	l.segs = append(l.segs, segment{path: path, firstSeq: firstSeq})
	return nil
}

// Close fsyncs and closes the active segment. Appends issued after Close
// fail with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	f := l.f
	target := l.nextSeq - 1
	l.mu.Unlock()

	serr := f.Sync()
	cerr := f.Close()
	if serr != nil {
		l.gc.fail(serr)
		return serr
	}
	l.gc.advance(target)
	return cerr
}

// appendRecord frames one record onto dst. The CRC is computed over the
// framed seq+payload bytes and patched in afterwards, which keeps the
// hot append path free of heap allocations (a stack scratch array passed
// to hash/crc32 would escape).
func appendRecord(dst []byte, seq uint64, payload []byte) []byte {
	base := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, 0, 0, 0, 0) // crc placeholder
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = append(dst, payload...)
	crc := crc32.Checksum(dst[base+8:], castagnoli)
	binary.BigEndian.PutUint32(dst[base+4:], crc)
	return dst
}

// scanResult is what validating one segment file yields.
type scanResult struct {
	hdrOK     bool
	firstSeq  uint64
	records   int
	validSize int64
	fileSize  int64
}

// scanSegment validates a segment's header and records, reporting the
// prefix that survives. It never fails on corrupt content, only on I/O
// errors.
func scanSegment(path string) (scanResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return scanResult{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return scanResult{}, err
	}
	res := scanResult{fileSize: st.Size()}

	r := bufio.NewReaderSize(f, 256<<10)
	var hdr [segHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return res, nil // shorter than a header: nothing valid
	}
	if string(hdr[:8]) != segMagic {
		return res, nil
	}
	res.hdrOK = true
	res.firstSeq = binary.BigEndian.Uint64(hdr[8:])
	res.validSize = segHdrLen

	want := res.firstSeq
	var rh [recHdrLen]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(r, rh[:]); err != nil {
			return res, nil // clean or torn end
		}
		n := binary.BigEndian.Uint32(rh[0:4])
		crc := binary.BigEndian.Uint32(rh[4:8])
		seq := binary.BigEndian.Uint64(rh[8:16])
		if n > MaxPayload || seq != want {
			return res, nil
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return res, nil
		}
		if crc32.Update(crc32.Update(0, castagnoli, rh[8:16]), castagnoli, payload) != crc {
			return res, nil
		}
		res.records++
		res.validSize += recHdrLen + int64(n)
		want++
	}
}

// segPath names the segment whose first record is firstSeq.
func segPath(dir string, firstSeq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%020d.seg", firstSeq))
}

// listSegments finds the directory's segment files sorted by firstSeq.
// Files that merely look like segments but have unparsable names are
// ignored (the directory also holds snapshots and a manifest).
func listSegments(dir string) ([]segment, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		num := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg")
		seq, err := strconv.ParseUint(num, 10, 64)
		if err != nil || len(num) != 20 {
			continue
		}
		segs = append(segs, segment{path: filepath.Join(dir, name), firstSeq: seq})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	return segs, nil
}

// removeSegments deletes the given segment files.
func removeSegments(dir string, segs []segment) error {
	for _, sg := range segs {
		if err := os.Remove(sg.path); err != nil {
			return err
		}
	}
	if len(segs) > 0 {
		return SyncDir(dir)
	}
	return nil
}

// SyncDir fsyncs a directory so renames, creations and deletions inside
// it are durable. It is shared with internal/snapshot, which manages
// snapshot files in the same data directory and must match its
// durability semantics.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	cerr := d.Close()
	if err != nil {
		return err
	}
	return cerr
}
