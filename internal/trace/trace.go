// Package trace is a sampled, allocation-free per-request span recorder.
//
// A trace is a 64-bit ID stamped on one client request; every layer the
// request crosses — server dispatch, shard queue, WAL group commit, peer
// hop, response writev — records a fixed-size span against that ID. The
// ID travels across processes in the wire trailer (internal/wire), so a
// relayed or route-directed request leaves joinable spans on every node
// it touches. /debug/traces renders recent traces as JSON with spans
// nested by time containment.
//
// The recorder is built for the serving hot path:
//
//   - Sampling is one atomic increment; unsampled requests cost a single
//     branch everywhere else (Record with trace 0 is a no-op, and all
//     methods are nil-receiver safe so untraced builds pass a nil
//     *Tracer straight through).
//   - Record writes a fixed-size slot in a ring buffer — no allocation,
//     no locks, no growth. Rings are selected by trace-ID hash so
//     concurrent requests spread across rings instead of contending on
//     one cursor.
//   - Slots are seqlock-versioned atomics: writers never block, and
//     Snapshot retries or skips slots that are mid-write, so a scrape
//     can never tear a span or stall the data path.
//
// The buffer is deliberately lossy: old spans are overwritten and a
// trace whose spans straddle a wrap may render incomplete. That is the
// right trade for always-on diagnostics of a saturated server.
package trace

import (
	"sync/atomic"
	"time"
)

// Kind labels what a span measured.
type Kind uint8

// Span kinds, in rough request order.
const (
	// KindDispatch is the server's read→enqueue step: frame decoded,
	// request validated and routed to a shard queue.
	KindDispatch Kind = iota + 1
	// KindQueueWait is the time a task sat in its shard queue before a
	// worker picked it up.
	KindQueueWait
	// KindShardExec is the task's share of shard batch execution,
	// excluding the WAL hook.
	KindShardExec
	// KindWALCommit is the task's share of the batch's WAL append +
	// group-commit fsync.
	KindWALCommit
	// KindPeerCall is one node-to-node Transport.Call round trip.
	KindPeerCall
	// KindRespFlush is a response's enqueue→writev-flush time on the
	// server's outbound path.
	KindRespFlush
	// KindForward is a relay's whole forward step: foreign key detected
	// to owner's reply relayed back.
	KindForward
	// KindRouteExec is the owner-side execution of a routed (TRoute)
	// request arriving over the peer transport.
	KindRouteExec
	// KindRepairExec is the responder-side build of one TRepair page.
	KindRepairExec
	// KindWrongView is a refusal of a stale-membership TRoute; zero
	// duration, it marks which node bounced the request.
	KindWrongView
	// KindReplicateExec is the co-replica-side apply of one TReplicate
	// (quorum-write fan-out) mutation.
	KindReplicateExec
)

// String returns the JSON/log name of the kind.
func (k Kind) String() string {
	switch k {
	case KindDispatch:
		return "dispatch"
	case KindQueueWait:
		return "queue_wait"
	case KindShardExec:
		return "shard_exec"
	case KindWALCommit:
		return "wal_commit"
	case KindPeerCall:
		return "peer_call"
	case KindRespFlush:
		return "resp_flush"
	case KindForward:
		return "forward"
	case KindRouteExec:
		return "route_exec"
	case KindRepairExec:
		return "repair_exec"
	case KindWrongView:
		return "wrong_view"
	case KindReplicateExec:
		return "replicate_exec"
	default:
		return "unknown"
	}
}

// Span is one recorded interval of a trace, as returned by Snapshot.
type Span struct {
	Trace uint64
	Kind  Kind
	// Node is the recording process's cluster index (Config.Node).
	Node uint32
	// Start is wall-clock unix nanoseconds; Dur the span length.
	Start int64
	Dur   int64
	// Extra is kind-specific context: batch size for exec/flush spans,
	// peer index for calls, wrapped type for forwards.
	Extra uint64
}

// slot is one seqlock-versioned span record. Every word is atomic so a
// concurrent Snapshot is race-free by construction; seq is bumped to odd
// before the payload stores and back to even after, letting readers
// detect and discard torn slots.
type slot struct {
	seq   atomic.Uint64
	trace atomic.Uint64
	start atomic.Int64
	dur   atomic.Int64
	// meta packs kind (high 32 bits) and node (low 32 bits).
	meta  atomic.Uint64
	extra atomic.Uint64
}

// ring is an independent span buffer with its own write cursor.
type ring struct {
	next  atomic.Uint64
	slots []slot
}

// Config sizes a Tracer.
type Config struct {
	// Node is the cluster index stamped on every span this process
	// records, so joined traces show which node each span ran on.
	Node uint32
	// SampleEvery samples one in N locally-originated requests; 0
	// disables local sampling (propagated trace IDs are still
	// recorded).
	SampleEvery int
	// Rings is the number of independent span rings (default 4).
	Rings int
	// SlotsPerRing is each ring's capacity, rounded up to a power of
	// two (default 1024).
	SlotsPerRing int
	// Seed perturbs the trace-ID stream; 0 derives one from the clock
	// so concurrent processes don't collide.
	Seed uint64
}

// Tracer records sampled request spans. All methods are safe on a nil
// receiver, so callers thread a possibly-nil *Tracer without guards.
type Tracer struct {
	node    uint32
	every   uint64
	seed    uint64
	count   atomic.Uint64
	rings   []ring
	mask    uint64 // per-ring slot index mask
	ringCnt uint64
}

// New builds a Tracer from cfg.
func New(cfg Config) *Tracer {
	if cfg.Rings <= 0 {
		cfg.Rings = 4
	}
	if cfg.SlotsPerRing <= 0 {
		cfg.SlotsPerRing = 1024
	}
	n := 1
	for n < cfg.SlotsPerRing {
		n <<= 1
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = uint64(time.Now().UnixNano()) | 1
	}
	t := &Tracer{
		node:    cfg.Node,
		every:   uint64(cfg.SampleEvery),
		seed:    seed,
		rings:   make([]ring, cfg.Rings),
		mask:    uint64(n - 1),
		ringCnt: uint64(cfg.Rings),
	}
	for i := range t.rings {
		t.rings[i].slots = make([]slot, n)
	}
	return t
}

// splitmix64 is the finalizer of Vigna's SplitMix64: a cheap bijection
// that turns a counter into a well-spread 64-bit ID.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Sample decides whether a new locally-originated request is traced,
// returning its fresh trace ID or 0. One atomic add per call; zero
// allocations either way.
func (t *Tracer) Sample() uint64 {
	if t == nil || t.every == 0 {
		return 0
	}
	n := t.count.Add(1)
	if n%t.every != 0 {
		return 0
	}
	id := splitmix64(t.seed + n)
	if id == 0 {
		id = 1
	}
	return id
}

// Record stores one span. It is a no-op for trace 0 (unsampled) and on a
// nil Tracer, and never allocates.
func (t *Tracer) Record(trace uint64, kind Kind, start time.Time, dur time.Duration, extra uint64) {
	if t == nil || trace == 0 {
		return
	}
	t.RecordNanos(trace, kind, start.UnixNano(), int64(dur), extra)
}

// RecordNanos is Record for callers that already hold unix-nano
// timestamps (e.g. the writev flush path, which stamps enqueue time once
// per frame).
func (t *Tracer) RecordNanos(trace uint64, kind Kind, startUnixNanos, durNanos int64, extra uint64) {
	if t == nil || trace == 0 {
		return
	}
	r := &t.rings[(splitmix64(trace))%t.ringCnt]
	s := &r.slots[(r.next.Add(1)-1)&t.mask]
	s.seq.Add(1) // odd: write in progress
	s.trace.Store(trace)
	s.start.Store(startUnixNanos)
	s.dur.Store(durNanos)
	s.meta.Store(uint64(kind)<<32 | uint64(t.node))
	s.extra.Store(extra)
	s.seq.Add(1) // even: consistent
}

// Snapshot copies every consistent recorded span out of the rings. Spans
// mid-write are skipped; order is unspecified.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	var out []Span
	for ri := range t.rings {
		r := &t.rings[ri]
		for si := range r.slots {
			s := &r.slots[si]
			for attempt := 0; attempt < 2; attempt++ {
				v0 := s.seq.Load()
				if v0%2 != 0 {
					continue // writer active, retry once
				}
				sp := Span{
					Trace: s.trace.Load(),
					Start: s.start.Load(),
					Dur:   s.dur.Load(),
					Extra: s.extra.Load(),
				}
				meta := s.meta.Load()
				sp.Kind = Kind(meta >> 32)
				sp.Node = uint32(meta)
				if s.seq.Load() != v0 {
					continue // torn by a concurrent writer, retry once
				}
				if sp.Trace != 0 {
					out = append(out, sp)
				}
				break
			}
		}
	}
	return out
}
