package discovery

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"discovery/internal/idspace"
	"discovery/internal/snapshot"
	"discovery/internal/wal"
)

// This file is the durability layer over Pool: a single write-ahead log
// shared by every shard (so concurrent shard workers group-commit their
// fsyncs) plus per-shard snapshots that bound recovery work and let the
// log be truncated.
//
// # Data directory layout
//
//	MANIFEST                      shard count, region and replication
//	wal-<firstSeq>.seg            write-ahead log segments (internal/wal)
//	snap-<shard>-<seq>.snap       per-shard state snapshots (internal/snapshot)
//
// # Invariants
//
//   - Write-ahead: a mutation is appended to the log (and made durable
//     per the fsync policy) before it executes, so an acked operation is
//     always recoverable and an unlogged one is never applied.
//   - A snapshot for shard s at sequence S contains the effect of every
//     shard-s record with seq <= S and nothing newer.
//   - The log is only truncated below min over shards of the newest
//     durable snapshot seq, so recovery always finds every record it
//     needs: restore each shard's snapshot, then replay the log once,
//     applying each record to its shard iff seq > that shard's snapshot.
//     Replay re-executes each record against the shard's store, so
//     recovery reproduces the pre-crash state exactly.

// opKind tags one logged mutation.
type opKind uint8

// Logged operation kinds. opInsert/opDelete are client mutations
// (Delete is origin-checked); opPut is an entry copied in from a peer
// (internal/p2p). Kind 4 is retired: it dropped an entry handed off to a
// peer, and a record carrying it fails decodeOp, refusing recovery.
const (
	opInsert opKind = 1
	opDelete opKind = 2
	opPut    opKind = 3
)

// op record payload layout (inside one wal record):
//
//	| u16 shard | u8 kind | u32 origin | key[20] | value |
//
// where value is empty for opDelete. Strict, canonical, never
// panics — the internal/wire discipline.
const opHdrLen = 2 + 1 + 4 + idspace.Bytes

// errOpRecord rejects malformed op payloads without allocating.
var errOpRecord = errors.New("discovery: malformed wal op record")

// appendOp encodes one mutation onto dst.
func appendOp(dst []byte, shard uint16, kind opKind, origin uint32, key ID, value []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, shard)
	dst = append(dst, byte(kind))
	dst = binary.BigEndian.AppendUint32(dst, origin)
	dst = append(dst, key[:]...)
	return append(dst, value...)
}

// decodeOp parses one mutation payload. value aliases payload.
func decodeOp(payload []byte) (shard uint16, kind opKind, origin uint32, key ID, value []byte, err error) {
	if len(payload) < opHdrLen {
		return 0, 0, 0, ID{}, nil, errOpRecord
	}
	shard = binary.BigEndian.Uint16(payload[0:2])
	kind = opKind(payload[2])
	origin = binary.BigEndian.Uint32(payload[3:7])
	copy(key[:], payload[7:opHdrLen])
	value = payload[opHdrLen:]
	switch kind {
	case opInsert, opPut:
	case opDelete:
		if len(value) != 0 {
			return 0, 0, 0, ID{}, nil, errOpRecord
		}
		value = nil
	default:
		return 0, 0, 0, ID{}, nil, errOpRecord
	}
	return shard, kind, origin, key, value, nil
}

// FsyncPolicy re-exports the write-ahead log's durability policies under
// the package's public configuration surface.
type FsyncPolicy = wal.Policy

// Fsync policies for DurableConfig.Fsync.
const (
	// FsyncBatch group-commits: every acked mutation is fsynced, but
	// concurrent shard workers share fsyncs. The default.
	FsyncBatch = wal.SyncBatch
	// FsyncOff never fsyncs: mutations survive a process crash (they
	// reach the kernel before the ack) but not a power failure.
	FsyncOff = wal.SyncOff
)

// ParseFsyncPolicy parses "batch" or "off".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return wal.ParsePolicy(s) }

// DurableConfig parameterizes OpenDurablePool.
type DurableConfig struct {
	// Dir is the data directory. Created if absent; reusing a directory
	// recovers the pool state persisted there (the MANIFEST must match).
	Dir string
	// Fsync selects when logged mutations are fsynced (default
	// FsyncBatch).
	Fsync FsyncPolicy
	// SnapshotEvery triggers a background snapshot of a shard after that
	// many logged mutations on it, which in turn lets the write-ahead
	// log be truncated. Zero snapshots only on Close.
	SnapshotEvery int
	// SegmentBytes is the log's segment rotation threshold (0 = the
	// wal package default, 64 MiB).
	SegmentBytes int64
	// Logf, when set, receives background snapshot errors and recovery
	// notes.
	Logf func(format string, args ...any)
	// WALSyncErr, when non-nil, is installed as the write-ahead log's
	// injectable fsync-failure hook (wal.Options.SyncErr): a non-nil
	// return is treated exactly like a failed fsync — the mutation that
	// hit it is never acked and the log poisons itself. Chaos-testing
	// hook; production leaves it nil.
	WALSyncErr func() error
}

// RecoveryStats reports what reopening a data directory recovered.
type RecoveryStats struct {
	// SnapshotEntries is the number of entries restored from snapshots.
	SnapshotEntries int
	// Replayed is the number of write-ahead log records re-executed.
	Replayed int
	// Elapsed is the total recovery wall time.
	Elapsed time.Duration
}

// DurablePool is a Pool whose mutations survive restarts and crashes.
// Reads and writes go through the embedded Pool API; Close drains the
// background snapshotter, snapshots every shard, and closes the log.
type DurablePool struct {
	*Pool
	cfg DurableConfig
	log *wal.Log
	dsh []durableShard

	// snapMu guards snapSeq, the per-shard newest durable snapshot seq.
	snapMu  sync.Mutex
	snapSeq []uint64

	snapCh    chan int
	quit      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// durableShard is one shard's logging state, guarded by the owning pool
// shard's mutex (a combiner round commits with it held).
type durableShard struct {
	dp          *DurablePool
	idx         int      // the shard's index
	buf         []byte   // op framing scratch
	offs        []int    // batch framing record boundaries in buf
	payloads    [][]byte // batch append argument scratch, aliasing buf
	seq         uint64   // seq of the shard's most recent logged mutation
	sinceSnap   int      // mutations since the last snapshot request
	snapPending bool     // a snapshot request is queued or running
}

// OpenDurablePool builds a Pool over ov backed by the data directory in
// cfg. A fresh directory starts empty; an existing one is recovered:
// each shard's newest snapshot is restored, then the write-ahead log is
// replayed over it. The shard count, region and replication must match
// the ones the directory was created with (checked via MANIFEST).
func OpenDurablePool(ov Overlay, shards int, cfg DurableConfig, opts ...Option) (*DurablePool, RecoveryStats, error) {
	var stats RecoveryStats
	start := time.Now()
	if cfg.Dir == "" {
		return nil, stats, errors.New("discovery: DurableConfig.Dir is required")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	p, err := NewPool(ov, shards, opts...)
	if err != nil {
		return nil, stats, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, stats, err
	}
	if err := checkManifest(cfg.Dir, p); err != nil {
		return nil, stats, err
	}

	dp := &DurablePool{
		Pool:    p,
		cfg:     cfg,
		dsh:     make([]durableShard, p.NumShards()),
		snapSeq: make([]uint64, p.NumShards()),
		snapCh:  make(chan int, p.NumShards()),
		quit:    make(chan struct{}),
	}

	// Restore each shard's newest snapshot, in parallel: shards are
	// independent and snapshot decode dominates recovery on big states.
	errs := make([]error, p.NumShards())
	entryCounts := make([]int, p.NumShards())
	var rwg sync.WaitGroup
	for i := 0; i < p.NumShards(); i++ {
		rwg.Add(1)
		go func(i int) {
			defer rwg.Done()
			entries, seq, err := snapshot.Load(cfg.Dir, uint32(i))
			if err != nil {
				errs[i] = err
				return
			}
			p.restoreShard(i, entries)
			dp.snapSeq[i] = seq
			dp.dsh[i].seq = seq
			entryCounts[i] = len(entries)
		}(i)
	}
	rwg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, stats, err
		}
	}
	minSnap, maxSnap := dp.snapSeq[0], dp.snapSeq[0]
	for _, s := range dp.snapSeq {
		if s < minSnap {
			minSnap = s
		}
		if s > maxSnap {
			maxSnap = s
		}
	}
	for _, n := range entryCounts {
		stats.SnapshotEntries += n
	}

	// The WAL shares the pool's metrics registry (NewPool guarantees one,
	// private unless WithMetrics supplied a shared registry), so wal.*
	// series land next to pool.* under one /metrics scrape.
	log, err := wal.Open(cfg.Dir, wal.Options{SegmentBytes: cfg.SegmentBytes, Sync: cfg.Fsync, Metrics: p.base.metrics, SyncErr: cfg.WALSyncErr})
	if err != nil {
		return nil, stats, err
	}
	dp.log = log

	// The log must reach back to every record the snapshots don't cover.
	// Two writer states are legitimate: running truncation keeps
	// first <= min(snapSeq)+1, and a graceful Close leaves an empty log
	// (first == next) after snapshotting every shard at its final seq.
	first, next := log.Bounds()
	if first > minSnap+1 && first != next {
		log.Close()
		return nil, stats, fmt.Errorf("discovery: %s: log starts at seq %d but a snapshot only covers through %d", cfg.Dir, first, minSnap)
	}
	// Sequence numbers never rewind: a snapshot at seq S implies the log
	// once reached S, so a log ending below S+1 has lost segments (e.g.
	// deleted files) and new appends would reuse seqs the snapshots
	// already pinned, to be silently skipped by the next recovery.
	if next < maxSnap+1 {
		log.Close()
		return nil, stats, fmt.Errorf("discovery: %s: log ends at seq %d but a snapshot covers through %d (missing segments?)", cfg.Dir, next, maxSnap)
	}
	from := minSnap + 1
	if from < first {
		from = first
	}
	err = log.Replay(from, func(seq uint64, payload []byte) error {
		shard, kind, origin, key, value, err := decodeOp(payload)
		if err != nil {
			return fmt.Errorf("record %d: %w", seq, err)
		}
		if int(shard) >= p.NumShards() {
			return fmt.Errorf("record %d: shard %d out of range", seq, shard)
		}
		if seq <= dp.snapSeq[shard] {
			return nil // already covered by that shard's snapshot
		}
		if kind == opInsert || kind == opPut {
			// The store retains inserted values; the replay payload
			// buffer is reused per record.
			value = append([]byte(nil), value...)
		}
		p.applyShard(int(shard), kind, origin, key, value)
		dp.dsh[shard].seq = seq
		stats.Replayed++
		return nil
	})
	if err != nil {
		log.Close()
		return nil, stats, fmt.Errorf("discovery: %s: replay: %w", cfg.Dir, err)
	}

	// Arm write-ahead logging and the background snapshotter.
	for i := range p.shards {
		dp.dsh[i].dp, dp.dsh[i].idx = dp, i
		p.shards[i].dur = &dp.dsh[i]
	}
	dp.wg.Add(1)
	go dp.snapLoop()

	stats.Elapsed = time.Since(start)
	return dp, stats, nil
}

// commit is the durable half of a combiner round (Pool.execRound). It
// runs with the shard's lock held: frame every mutation of every
// submission in segs into one flat buffer, append them to the shared log
// as ONE multi-record write covered by one fsync (which the other shards'
// rounds share via group commit), and occasionally request a snapshot.
// Per-mutation durability cost divides by the round's mutation count. An
// error means no mutation of the round is known durable.
func (ds *durableShard) commit(segs [][]BatchOp) error {
	// Frame into the flat buffer first, recording record boundaries: the
	// buffer may reallocate while growing, so the payload subslices are
	// cut only after framing finishes. A buffer grown by one value-heavy
	// round is not retained forever (the wal package applies the same cap
	// to its own scratch).
	if cap(ds.buf) > 4<<20 {
		ds.buf = nil
	}
	ds.buf = ds.buf[:0]
	ds.offs = ds.offs[:0]
	for _, ops := range segs {
		for k := range ops {
			op := &ops[k]
			if op.Err != nil || op.skip {
				continue
			}
			var kind opKind
			var value []byte
			switch op.Kind {
			case BatchInsert:
				kind, value = opInsert, op.Value
			case BatchDelete:
				kind = opDelete
			case BatchPut:
				kind, value = opPut, op.Value
			default:
				continue
			}
			ds.buf = appendOp(ds.buf, uint16(ds.idx), kind, uint32(op.Origin), op.Key, value)
			ds.offs = append(ds.offs, len(ds.buf))
		}
	}
	ds.payloads = ds.payloads[:0]
	start := 0
	for _, end := range ds.offs {
		ds.payloads = append(ds.payloads, ds.buf[start:end])
		start = end
	}
	first, err := ds.dp.log.AppendBatch(ds.payloads)
	if err != nil {
		return fmt.Errorf("discovery: wal append: %w", err)
	}
	n := len(ds.payloads)
	ds.seq = first + uint64(n) - 1
	ds.sinceSnap += n
	if every := ds.dp.cfg.SnapshotEvery; every > 0 && ds.sinceSnap >= every && !ds.snapPending {
		ds.snapPending = true
		select {
		case ds.dp.snapCh <- ds.idx:
		default:
			ds.snapPending = false // snapshotter saturated; retry later
		}
	}
	return nil
}

// snapLoop runs snapshot requests until Close.
func (dp *DurablePool) snapLoop() {
	defer dp.wg.Done()
	for {
		select {
		case i := <-dp.snapCh:
			if err := dp.snapshotShard(i); err != nil {
				dp.cfg.Logf("discovery: snapshot shard %d: %v", i, err)
			}
		case <-dp.quit:
			return
		}
	}
}

// snapshotShard exports shard i's state under its lock, writes the
// snapshot outside it, garbage-collects older snapshots, and truncates
// the log below the minimum snapshot seq across shards.
func (dp *DurablePool) snapshotShard(i int) error {
	s := &dp.Pool.shards[i]
	ds := &dp.dsh[i]

	s.mu.Lock()
	entries := dp.Pool.exportShardLocked(i)
	seq := ds.seq
	ds.sinceSnap = 0
	s.mu.Unlock()

	err := snapshot.Write(dp.cfg.Dir, uint32(i), seq, entries)

	s.mu.Lock()
	ds.snapPending = false
	s.mu.Unlock()
	if err != nil {
		return err
	}

	dp.snapMu.Lock()
	if seq > dp.snapSeq[i] {
		dp.snapSeq[i] = seq
	}
	min := dp.snapSeq[0]
	for _, v := range dp.snapSeq {
		if v < min {
			min = v
		}
	}
	dp.snapMu.Unlock()

	if err := snapshot.GC(dp.cfg.Dir, uint32(i), seq); err != nil {
		return err
	}
	return dp.log.TruncateBefore(min + 1)
}

// Sync forces an fsync of the write-ahead log, regardless of policy.
// Under FsyncOff this is the only durability point besides Close.
func (dp *DurablePool) Sync() error { return dp.log.Sync() }

// Close stops the background snapshotter, snapshots every shard (so the
// next open replays nothing), truncates the log accordingly, and closes
// it. The caller must have stopped issuing mutations — in discoverynode,
// the server drains its shard queues first and then closes the store.
func (dp *DurablePool) Close() error {
	dp.closeOnce.Do(func() {
		close(dp.quit)
		dp.wg.Wait()
		failed := false
		for i := range dp.dsh {
			if err := dp.snapshotShard(i); err != nil {
				failed = true
				if dp.closeErr == nil {
					dp.closeErr = err
				}
			}
		}
		if !failed {
			// Mutations are quiesced and every shard just snapshotted at
			// its final seq, so the whole log is redundant: drop it all
			// and the next open replays (and scans) nothing.
			_, next := dp.log.Bounds()
			if err := dp.log.TruncateBefore(next); err != nil && dp.closeErr == nil {
				dp.closeErr = err
			}
		}
		if err := dp.log.Close(); err != nil && dp.closeErr == nil {
			dp.closeErr = err
		}
	})
	return dp.closeErr
}

// manifestName is the parameter-pinning file inside a data directory.
const manifestName = "MANIFEST"

// manifestFor renders the parameters that must match across opens of one
// data directory: snapshots and log records are filed by shard, and the
// region and replication decide which keys the directory may hold.
func manifestFor(p *Pool) string {
	c := p.base
	return fmt.Sprintf("discovery-manifest v4\nshards %d\nregion %d/%d\nreplication %d\n",
		len(p.shards), c.regionIndex, c.regionCount, c.replication)
}

// writeManifest atomically and durably writes the manifest file
// (tmp + fsync + rename + dirsync, the internal/snapshot discipline): a
// torn MANIFEST would refuse recovery of an intact data directory.
func writeManifest(path, content string) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(content); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return wal.SyncDir(filepath.Dir(path))
}

// checkManifest writes the manifest on first open and verifies it on
// later ones, refusing to recover state into a mismatched pool.
func checkManifest(dir string, p *Pool) error {
	want := manifestFor(p)
	path := filepath.Join(dir, manifestName)
	got, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return writeManifest(path, want)
	}
	if err != nil {
		return err
	}
	if string(got) == want {
		return nil
	}
	return fmt.Errorf("discovery: %s was created with different parameters:\n--- stored\n%s--- this pool\n%s", dir, got, want)
}
