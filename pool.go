package discovery

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"discovery/internal/metrics"
	"discovery/internal/mpil"
	"discovery/internal/snapshot"
)

// Pool is a concurrency-safe, shard-per-core wrapper around Service. A
// Service is single-threaded by design (the MPIL engine keeps mutable
// routing scratch and a deterministic RNG), so Pool partitions the key
// space across a fixed set of shards, each owning one Service over the
// shared read-only overlay. Every key maps to exactly one shard, so all
// replicas, deletes, and lookups for a key agree on which engine owns it.
//
// Calls for different shards proceed in parallel; calls for the same
// shard serialize on that shard's mutex. For a fixed seed and shard
// count, each shard is as deterministic as a lone Service: the i-th
// operation on a shard gives the same result in any run that delivers
// the same operations to that shard in the same order.
//
// Pool is the library-side counterpart of the discoveryd daemon, which
// adds bounded request queues and a wire protocol in front of the same
// sharding scheme (see internal/server).
//
// A Pool is in-memory by default: a restart loses every stored replica.
// OpenDurablePool builds a Pool whose mutations are logged to a
// write-ahead log and periodically snapshotted, surviving restarts and
// crashes (see durable.go).
type Pool struct {
	ov     Overlay
	base   config // validated option state shared by every shard
	shards []poolShard
}

// poolShard is one engine plus its serialization lock, commit combiner
// and counters. The counters live in the pool's metrics registry (a
// private one unless WithMetrics supplied a shared registry), so a live
// /metrics scrape and Pool.Stats read the same atomics; increments happen
// while the shard executes a request under mu, reads are lock-free.
type poolShard struct {
	mu  sync.Mutex // the engine and dur: held by a combiner round and by readers
	svc *Service
	dur *durableShard // write-ahead state; nil for in-memory pools

	// Commit combiner (see submit). cmu guards leading and waiting only
	// and is never held while a round runs.
	cmu     sync.Mutex
	leading bool      // a goroutine is running a round on this shard
	waiting []*waiter // submissions queued behind it, in arrival order

	// Round scratch, owned by whichever goroutine currently leads.
	segs  [][]BatchOp
	round []*waiter

	inserts      *metrics.Counter
	lookups      *metrics.Counter
	deletes      *metrics.Counter
	lookupsFound *metrics.Counter
	replyHops    *metrics.Counter // total first-reply hops over found lookups
}

// NewPool builds a pool of shards over one overlay. shards <= 0 selects
// GOMAXPROCS. Options apply to every shard, except that each shard i
// derives its tie-sampling seed as seed+i so shards draw independent
// deterministic streams.
func NewPool(ov Overlay, shards int, opts ...Option) (*Pool, error) {
	if ov == nil {
		return nil, fmt.Errorf("discovery: nil overlay")
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	// Recover the base seed the caller configured (default 1) so the
	// per-shard seeds are derived from it.
	base := config{seed: 1, regionCount: 1, replication: 1}
	for _, opt := range opts {
		opt(&base)
	}
	// Counters always live in a registry so Stats works unmetered; a
	// shared registry (WithMetrics) additionally exposes them process-wide.
	reg := base.metrics
	if reg == nil {
		reg = metrics.NewRegistry()
		base.metrics = reg
	}
	p := &Pool{ov: ov, base: base, shards: make([]poolShard, shards)}
	for i := range p.shards {
		svc, err := New(ov, append(append([]Option(nil), opts...), WithSeed(base.seed+int64(i)))...)
		if err != nil {
			return nil, err
		}
		s := &p.shards[i]
		s.svc = svc
		s.inserts = reg.Counter(fmt.Sprintf("pool.ops{op=insert,shard=%d}", i))
		s.lookups = reg.Counter(fmt.Sprintf("pool.ops{op=lookup,shard=%d}", i))
		s.deletes = reg.Counter(fmt.Sprintf("pool.ops{op=delete,shard=%d}", i))
		s.lookupsFound = reg.Counter(fmt.Sprintf("pool.lookups_found{shard=%d}", i))
		s.replyHops = reg.Counter(fmt.Sprintf("pool.reply_hops_total{shard=%d}", i))
	}
	return p, nil
}

// NumShards returns the shard count.
func (p *Pool) NumShards() int { return len(p.shards) }

// Overlay returns the overlay every shard routes over.
func (p *Pool) Overlay() Overlay { return p.ov }

// Region returns the keyspace region this pool owns (index of count
// contiguous regions; 0 of 1 when unrestricted). See WithRegion.
func (p *Pool) Region() (index, count int) {
	return p.base.regionIndex, p.base.regionCount
}

// Replication returns how many regions replicate each key (1 when
// unreplicated). See WithReplication.
func (p *Pool) Replication() int { return p.base.replication }

// Owns reports whether this pool's region is in key's replica set (with
// replication 1, whether it is key's primary owner). Unrestricted pools
// own everything.
func (p *Pool) Owns(key ID) bool {
	return p.base.regionCount <= 1 ||
		Replicates(key, p.base.regionIndex, p.base.regionCount, p.base.replication)
}

// checkOwned refuses mutations for keys outside the pool's replica set:
// in a cluster those must be routed to a replica (internal/p2p), never
// applied locally where no other node would find them.
func (p *Pool) checkOwned(key ID) error {
	if p.Owns(key) {
		return nil
	}
	return fmt.Errorf("discovery: key %v belongs to region %d (replication %d), this pool owns region %d of %d",
		key, OwnerOf(key, p.base.regionCount), p.base.replication, p.base.regionIndex, p.base.regionCount)
}

// fnv1a hashes the key bytes with FNV-1a, the shard-routing hash.
func fnv1a(key ID) uint64 {
	const offset64 = 14695981039346656037
	const prime64 = 1099511628211
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// ShardOf returns the shard index owning key. The mapping depends only
// on the key bytes and the shard count.
func (p *Pool) ShardOf(key ID) int {
	return int(fnv1a(key) % uint64(len(p.shards)))
}

// AutoOrigin deterministically picks an entry node for key, for callers
// (like the daemon) that accept requests with no origin attached. The
// choice is spread uniformly and is independent of the shard mapping.
func (p *Pool) AutoOrigin(key ID) int {
	return int((fnv1a(key) >> 32) % uint64(p.ov.N()))
}

// Insert publishes key from origin via the owning shard: a batch of one
// through the shard's commit combiner (see ExecBatch). On a durable pool
// the operation is logged (and, per the fsync policy, made durable)
// before it executes; a logging failure returns the error with the
// engine untouched. In-memory pools only refuse foreign-region keys.
func (p *Pool) Insert(origin int, key ID, value []byte) (InsertResult, error) {
	op := [1]BatchOp{{Kind: BatchInsert, Origin: origin, Key: key, Value: value}}
	p.submit(p.ShardOf(key), op[:])
	return op[0].Insert, op[0].Err
}

// Lookup queries key from origin via the owning shard. Unlike Insert
// and Delete, lookups are deliberately NOT region-checked: a
// region-restricted pool answers a foreign key honestly from its local
// state (not found), because reads are harmless and refusing them would
// break inspection tooling. Callers that want cluster-wide reads must
// route lookups to the key's owning node (internal/p2p does this in
// front of the pool); a direct Lookup on a non-owner only reflects
// local state.
func (p *Pool) Lookup(origin int, key ID) LookupResult {
	s := &p.shards[p.ShardOf(key)]
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lookups.Inc()
	res := s.svc.Lookup(origin, key)
	if res.Found {
		s.lookupsFound.Inc()
		s.replyHops.Add(uint64(res.FirstReplyHops))
	}
	return res
}

// Delete removes origin's replicas of key via the owning shard. Like
// Insert, it is a batch of one and durable pools log it before applying.
func (p *Pool) Delete(origin int, key ID) (int, error) {
	op := [1]BatchOp{{Kind: BatchDelete, Origin: origin, Key: key}}
	p.submit(p.ShardOf(key), op[:])
	return op[0].Removed, op[0].Err
}

// BatchKind tags one operation of an ExecBatch.
type BatchKind uint8

// Batch operation kinds. The first three mirror Insert, Lookup and
// Delete; BatchPut is ImportReplica's batched twin — a direct replica
// placement at an explicit engine node, used by the cluster transfer
// and repair receive paths so a whole entry page imports under one
// shard-lock acquisition and one group-committed WAL append.
const (
	BatchInsert BatchKind = iota + 1
	BatchLookup
	BatchDelete
	BatchPut
	// batchDrop is DropReplica's op: remove the replica of Key stored at
	// Node, neither origin-restricted nor region-checked. Removed reports
	// 1 when a replica was dropped.
	batchDrop
)

// BatchOp is one operation of a shard batch executed by ExecBatch. Kind,
// Origin, Key and Value are the request; exactly one result field is
// filled on success, and Err reports a refused or failed operation (the
// other ops of the batch are unaffected). Node is the explicit engine
// node of a BatchPut placement and ignored otherwise.
type BatchOp struct {
	Kind   BatchKind
	Origin int
	Key    ID
	Value  []byte // insert payload; retained by the engine on success
	Node   int    // BatchPut only: engine node holding the replica

	Insert  InsertResult
	Lookup  LookupResult
	Removed int
	Err     error

	// skip marks a BatchPut whose exact replica (node, origin, value)
	// is already stored: it succeeds without a write-ahead record or an
	// engine write. Anti-entropy re-pulls the same pages over and over;
	// without this, every periodic pass would re-log the whole keyspace.
	skip bool
}

// ExecBatch executes ops — whose keys must all map to the same shard —
// in order, through the shard's commit combiner: the only way a mutation
// reaches an engine. A caller that finds the shard idle runs its batch
// inline on its own goroutine; one that finds a batch in flight queues
// behind it, and everything queued when that batch finishes — client
// batches, replica applies, single-op mutators, whoever submitted them —
// executes as ONE merged batch under one shard-lock acquisition. On a
// durable pool every mutation of the merged batch is logged as a single
// multi-record write-ahead append covered by one shared fsync before any
// of them applies, so the per-mutation durability cost divides by the
// merged mutation count while the write-ahead contract is untouched: a
// mutation whose record is not durable never executes and never acks.
// Results and errors land in the ops themselves. An op whose key maps to
// another shard, or whose mutation targets a foreign region, gets Err set
// and is skipped; a failed append fails every mutation of the merged
// batch, from every submitter (their outcome is unknown, exactly like a
// crash between append and ack) while lookups still execute.
//
// A batch is equivalent to issuing its ops back to back on the shard:
// submissions execute whole and in arrival order, and intra-batch
// read-your-writes holds because mutations apply in batch order before
// any later lookup in the same batch runs.
func (p *Pool) ExecBatch(ops []BatchOp) {
	p.ExecBatchTimed(ops)
}

// ExecBatchTimed is ExecBatch, additionally reporting how long the merged
// batch that carried ops spent in the write-ahead log — the append plus
// its share of the group-commit fsync — and how many mutations that
// append covered, the divisor for a per-mutation share. Both are 0 for
// in-memory pools and lookup-only batches. They feed the tracing layer's
// wal_commit spans without the WAL needing to know about tracing.
func (p *Pool) ExecBatchTimed(ops []BatchOp) (walNanos int64, merged int) {
	if len(ops) == 0 {
		return 0, 0
	}
	return p.submit(p.ShardOf(ops[0].Key), ops)
}

// maxRoundOps caps the ops one combiner round merges (a submission larger
// than the cap still runs, alone), bounding both the framing scratch a
// round retains and how long a submitter at the back of a deep queue
// waits for the rounds ahead of it.
const maxRoundOps = 256

// waiter is one submission queued behind a running round. wake delivers
// false once a round has executed ops (walNanos and merged describe that
// round), or true to hand the submitter the shard's leadership with ops
// still to run.
type waiter struct {
	ops      []BatchOp
	wake     chan bool // buffered: the waker never blocks
	walNanos int64
	merged   int
}

var waiterPool = sync.Pool{New: func() any { return &waiter{wake: make(chan bool, 1)} }}

// submit is the shard's leader/follower commit combiner. The first
// submitter to find the shard idle becomes its leader and runs its own
// ops as a round at once — no gathering delay, no goroutine hop, so an
// uncontended submission costs what a direct call would. Submitters that
// arrive meanwhile queue; when the round ends the leader hands leadership
// to the head of the queue, which runs itself plus everything queued
// behind it (up to maxRoundOps) as the next round and wakes each
// submitter with its own results. Every leader runs exactly one round —
// the one holding its own ops — so no caller is kept draining other
// submitters' work, however steadily they arrive.
//
// A round waits only on the local log, never on a peer or on another
// shard: that is what lets a replica apply (internal/p2p) queue here
// behind a coordinator's batch without two nodes ever waiting on each
// other.
func (p *Pool) submit(shard int, ops []BatchOp) (walNanos int64, merged int) {
	s := &p.shards[shard]
	s.cmu.Lock()
	if s.leading {
		w := waiterPool.Get().(*waiter)
		w.ops = ops
		s.waiting = append(s.waiting, w)
		s.cmu.Unlock()
		promoted := <-w.wake
		walNanos, merged = w.walNanos, w.merged
		w.ops = nil
		waiterPool.Put(w)
		if !promoted {
			return walNanos, merged
		}
		// Leadership was handed over: open the round with everything that
		// queued up behind this submission.
		s.cmu.Lock()
		n, take := len(ops), 0
		for take < len(s.waiting) && n+len(s.waiting[take].ops) <= maxRoundOps {
			n += len(s.waiting[take].ops)
			take++
		}
		s.round = append(s.round[:0], s.waiting[:take]...)
		s.waiting = s.waiting[:s.shiftWaiting(take)]
	} else {
		s.leading = true
	}
	s.cmu.Unlock()

	s.segs = append(s.segs[:0], ops)
	for _, w := range s.round {
		s.segs = append(s.segs, w.ops)
	}
	walNanos, merged = p.execRound(shard, s.segs)
	for i, w := range s.round {
		w.walNanos, w.merged = walNanos, merged
		s.round[i] = nil
		w.wake <- false
	}
	s.round = s.round[:0]
	clear(s.segs)

	s.cmu.Lock()
	var next *waiter
	if len(s.waiting) > 0 {
		next = s.waiting[0]
		s.waiting = s.waiting[:s.shiftWaiting(1)]
	} else {
		s.leading = false
	}
	s.cmu.Unlock()
	if next != nil {
		next.wake <- true
	}
	return walNanos, merged
}

// shiftWaiting drops the first n queued waiters, returning the new queue
// length. The caller holds cmu.
func (s *poolShard) shiftWaiting(n int) int {
	rest := copy(s.waiting, s.waiting[n:])
	clear(s.waiting[rest:])
	return rest
}

// execRound executes one combiner round on shard: the ops of every
// submission in segs, in order, under one shard-lock acquisition, with
// every mutation among them logged by one write-ahead append first. It
// returns the time that append took and the mutations it covered.
func (p *Pool) execRound(shard int, segs [][]BatchOp) (walNanos int64, merged int) {
	s := &p.shards[shard]
	s.mu.Lock()
	defer s.mu.Unlock()

	// The already-stored checks below read pre-round engine state, so they
	// are only valid for a placement no earlier op of this round shadows: a
	// touched set guards that, allocated only when the round has direct
	// placements (client insert/delete batches never pay for it).
	var touched map[ID]struct{}
	total, placements := 0, false
	for _, ops := range segs {
		total += len(ops)
		for i := range ops {
			placements = placements || ops[i].Kind == BatchPut || ops[i].Kind == batchDrop
		}
	}
	if placements {
		touched = make(map[ID]struct{}, total)
	}
	mutations := 0
	for _, ops := range segs {
		for i := range ops {
			op := &ops[i]
			op.Err = nil
			op.skip = false
			if so := p.ShardOf(op.Key); so != shard {
				op.Err = fmt.Errorf("discovery: batch op %d: key %v maps to shard %d, batch executes on shard %d", i, op.Key, so, shard)
				continue
			}
			switch op.Kind {
			case BatchInsert, BatchDelete:
				if op.Err = p.checkOwned(op.Key); op.Err != nil {
					continue
				}
			case BatchPut, batchDrop:
				// Dropping skips the region check: handing off foreign keys
				// is its purpose.
				if op.Kind == BatchPut {
					if op.Err = p.checkOwned(op.Key); op.Err != nil {
						continue
					}
				}
				if op.Node < 0 || op.Node >= p.ov.N() {
					op.Err = fmt.Errorf("discovery: batch op %d: replica node %d out of range (overlay has %d nodes)", i, op.Node, p.ov.N())
					continue
				}
				if _, shadowed := touched[op.Key]; !shadowed {
					// A byte-identical replica already stored (and durably
					// logged when it first landed), or nothing to drop:
					// succeed with no write-ahead record and no engine write.
					r, ok := s.svc.eng.Stored(op.Node, op.Key)
					if op.Kind == BatchPut {
						op.skip = ok && r.Origin == op.Origin && bytes.Equal(r.Value, op.Value)
					} else {
						op.skip = !ok
					}
					if op.skip {
						continue
					}
				}
			case BatchLookup:
				continue
			default:
				op.Err = fmt.Errorf("discovery: batch op %d: unknown kind %d", i, op.Kind)
				continue
			}
			mutations++
			if touched != nil {
				touched[op.Key] = struct{}{}
			}
		}
	}
	if mutations > 0 && s.dur != nil {
		merged = mutations
		walStart := time.Now()
		err := s.dur.commit(segs)
		walNanos = int64(time.Since(walStart))
		if err != nil {
			for _, ops := range segs {
				for i := range ops {
					if op := &ops[i]; op.Err == nil && op.Kind != BatchLookup {
						op.Err = err
					}
				}
			}
		}
	}
	for _, ops := range segs {
		for i := range ops {
			op := &ops[i]
			if op.Err != nil || op.skip {
				continue
			}
			switch op.Kind {
			case BatchInsert:
				s.inserts.Inc()
				op.Insert = s.svc.Insert(op.Origin, op.Key, op.Value)
			case BatchLookup:
				s.lookups.Inc()
				op.Lookup = s.svc.Lookup(op.Origin, op.Key)
				if op.Lookup.Found {
					s.lookupsFound.Inc()
					s.replyHops.Add(uint64(op.Lookup.FirstReplyHops))
				}
			case BatchDelete:
				s.deletes.Inc()
				op.Removed = s.svc.Delete(op.Origin, op.Key)
			case BatchPut:
				// Direct placements are transfer and anti-entropy traffic,
				// not client requests, so they skip the counters.
				op.Err = s.svc.eng.PutReplica(op.Node, mpil.Replica{Key: op.Key, Value: op.Value, Origin: op.Origin})
			case batchDrop:
				if s.svc.eng.RemoveReplica(op.Node, op.Key) {
					op.Removed = 1
				}
			}
		}
	}
	return walNanos, merged
}

// ImportReplica places a replica directly at engine node without routing,
// write-ahead logged on durable pools: a batch of one BatchPut. It is the
// receive half of a cluster replica transfer (internal/p2p): the sender
// exports its exact placements and the receiver reproduces them, so
// lookups route to the same holders they did on the sender. The key must
// belong to this pool's region, and the pool retains value.
func (p *Pool) ImportReplica(node int, origin uint32, key ID, value []byte) error {
	op := [1]BatchOp{{Kind: BatchPut, Node: node, Origin: int(origin), Key: key, Value: value}}
	p.submit(p.ShardOf(key), op[:])
	return op[0].Err
}

// ReplicaEntry is one direct replica placement applied by ImportBatch:
// ImportReplica's arguments in batch form.
type ReplicaEntry struct {
	Node   int
	Origin uint32
	Key    ID
	Value  []byte // retained by the pool on success
}

// ImportBatch places a batch of replicas directly at their engine nodes,
// grouping entries by owning shard so each group applies under ONE
// shard-lock acquisition and — on durable pools — ONE group-committed
// write-ahead append, instead of ImportReplica's per-entry lock and
// fsync rounds. It is the receive half of a batched cluster transfer
// (TTransfer / TRepairOK pages in internal/p2p).
//
// The result state is exactly what applying the entries one by one
// through ImportReplica would produce: placement order within a shard is
// preserved, and a refused entry (foreign region, node out of range)
// skips only itself. accepted counts the entries the pool now holds —
// including entries whose byte-identical replica was already stored,
// which succeed without a write-ahead record or engine write — so a
// transfer sender may drop its copy of every accepted entry. fresh
// counts the subset that actually mutated state: anti-entropy uses it
// to tell a converging pull from a steady-state re-walk. firstErr is
// the first refusal or failure encountered, nil when every entry
// landed. A failed group append fails that whole group — none of its
// entries is known durable, so none of them executes.
func (p *Pool) ImportBatch(entries []ReplicaEntry) (accepted, fresh int, firstErr error) {
	if len(entries) == 0 {
		return 0, 0, nil
	}
	byShard := make([][]BatchOp, len(p.shards))
	for _, e := range entries {
		si := p.ShardOf(e.Key)
		byShard[si] = append(byShard[si], BatchOp{
			Kind:   BatchPut,
			Node:   e.Node,
			Origin: int(e.Origin),
			Key:    e.Key,
			Value:  e.Value,
		})
	}
	for _, ops := range byShard {
		if len(ops) == 0 {
			continue
		}
		p.ExecBatch(ops)
		for i := range ops {
			if ops[i].Err != nil {
				if firstErr == nil {
					firstErr = ops[i].Err
				}
				continue
			}
			accepted++
			if !ops[i].skip {
				fresh++
			}
		}
	}
	return accepted, fresh, firstErr
}

// DropReplica removes the replica of key stored at engine node, if any,
// write-ahead logged on durable pools. It is the send half of a replica
// transfer: once the owner has acknowledged the copy, the local one is
// dropped. Unlike Delete it is not origin-restricted and not routed, and
// it deliberately skips the region check — handing off foreign keys is
// its purpose.
func (p *Pool) DropReplica(node int, key ID) (bool, error) {
	op := [1]BatchOp{{Kind: batchDrop, Node: node, Key: key}}
	p.submit(p.ShardOf(key), op[:])
	return op[0].Removed == 1, op[0].Err
}

// ForEachReplica visits every stored replica across all shards, locking
// each shard in turn. The value slice aliases engine storage and must be
// treated as read-only; it remains valid after the callback returns
// (engine storage never mutates stored bytes).
func (p *Pool) ForEachReplica(fn func(node int, origin uint32, key ID, value []byte)) {
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		s.svc.eng.ForEachReplica(func(node int, r mpil.Replica) {
			fn(node, uint32(r.Origin), r.Key, r.Value)
		})
		s.mu.Unlock()
	}
}

// ReplicaCursor marks a resume position in the pool's stable replica
// iteration order: shard ascending, then engine node ascending, then key
// ascending. The zero cursor is the start of the store. Cursors are
// meaningful across calls (and across processes with the same pool
// parameters) because the order depends only on the shard mapping and
// the key bytes, never on map iteration order.
type ReplicaCursor struct {
	Shard uint32
	Node  uint32
	Key   ID
}

// ForEachReplicaFrom visits stored replicas in stable (shard, node, key)
// order starting at the first position at or after cur, locking one
// shard at a time. fn returning false stops the walk at that replica:
// shards and nodes past the stop point are never visited and their locks
// never taken, which is what makes a byte-budgeted caller (peer repair)
// cheap on a large store. next is the cursor of the first unvisited
// replica — the one fn rejected — so passing it back resumes the walk
// there; done reports that the walk reached the end of the store
// instead. Values alias engine storage, exactly as in ForEachReplica.
//
// Replicas added or removed between paginated calls may be missed or
// revisited, as with any cursor over live state; anti-entropy converges
// by re-running.
func (p *Pool) ForEachReplicaFrom(cur ReplicaCursor, fn func(node int, origin uint32, key ID, value []byte) bool) (next ReplicaCursor, done bool) {
	// Cursors arrive off the wire (peer repair): a shard at or past the
	// end means the walk is over, and the explicit >= guard also keeps a
	// hostile cursor from going negative through int() on 32-bit builds.
	if cur.Shard >= uint32(len(p.shards)) {
		return ReplicaCursor{}, true
	}
	for si := int(cur.Shard); si < len(p.shards); si++ {
		fromNode, fromKey := 0, ID{}
		if si == int(cur.Shard) {
			fromNode, fromKey = int(cur.Node), cur.Key
		}
		s := &p.shards[si]
		s.mu.Lock()
		var stopNode int
		var stopKey ID
		complete := s.svc.eng.ForEachReplicaFrom(fromNode, fromKey, func(node int, r mpil.Replica) bool {
			if !fn(node, uint32(r.Origin), r.Key, r.Value) {
				stopNode, stopKey = node, r.Key
				return false
			}
			return true
		})
		s.mu.Unlock()
		if !complete {
			return ReplicaCursor{Shard: uint32(si), Node: uint32(stopNode), Key: stopKey}, false
		}
	}
	return ReplicaCursor{}, true
}

// ReplicaCount returns the pool-wide stored replica total.
func (p *Pool) ReplicaCount() int { return p.replicaCount() }

// Holders returns the nodes storing key in its owning shard, ascending.
func (p *Pool) Holders(key ID) []int {
	s := &p.shards[p.ShardOf(key)]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.svc.Holders(key)
}

// Value returns the payload of key stored at node i, if any, consulting
// the shard that owns key.
func (p *Pool) Value(i int, key ID) ([]byte, bool) {
	s := &p.shards[p.ShardOf(key)]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.svc.Value(i, key)
}

// ShardStats is one shard's counter snapshot.
type ShardStats struct {
	Requests uint64
	Inserts  uint64
	Lookups  uint64
	Deletes  uint64
	// LookupsFound counts lookups that located a replica.
	LookupsFound uint64
	// LookupSuccessPct is the shard's lookup success rate in percent.
	LookupSuccessPct float64
	// MeanReplyHops is the mean first-reply hop count of successful
	// lookups.
	MeanReplyHops float64
}

// PoolStats aggregates the pool's counters, overall and per shard.
type PoolStats struct {
	Shards       int
	Requests     uint64
	Inserts      uint64
	Lookups      uint64
	Deletes      uint64
	LookupsFound uint64
	PerShard     []ShardStats
}

// exportShardLocked returns shard i's full replica state, sorted by
// (node, key) so identical states serialize to identical snapshot bytes.
// The values alias engine storage (which never mutates stored bytes);
// the caller holds the shard's lock.
func (p *Pool) exportShardLocked(i int) []snapshot.Entry {
	var out []snapshot.Entry
	p.shards[i].svc.eng.ForEachReplica(func(node int, r mpil.Replica) {
		out = append(out, snapshot.Entry{
			Node:   uint32(node),
			Origin: uint32(r.Origin),
			Key:    r.Key,
			Value:  r.Value,
		})
	})
	sort.Slice(out, func(a, b int) bool {
		if out[a].Node != out[b].Node {
			return out[a].Node < out[b].Node
		}
		return out[a].Key.Cmp(out[b].Key) < 0
	})
	return out
}

// restoreShard loads exported replica state back into shard i, placing
// each replica directly (no routing). Entries must come from a pool with
// the same overlay; nodes out of range are an error.
func (p *Pool) restoreShard(i int, entries []snapshot.Entry) error {
	s := &p.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range entries {
		err := s.svc.eng.PutReplica(int(e.Node), mpil.Replica{
			Key:    e.Key,
			Value:  e.Value,
			Origin: int(e.Origin),
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// applyShard re-executes one logged mutation on shard i during recovery.
// It bypasses the mutation hook (the record is already in the log), the
// region check (the log only ever holds keys the pool accepted), and the
// request counters (a replayed operation was served by a previous
// process, not this one).
func (p *Pool) applyShard(i int, kind opKind, node, origin uint32, key ID, value []byte) error {
	s := &p.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	switch kind {
	case opInsert:
		s.svc.Insert(int(origin), key, value)
	case opDelete:
		s.svc.Delete(int(origin), key)
	case opPut:
		return s.svc.eng.PutReplica(int(node), mpil.Replica{Key: key, Value: value, Origin: int(origin)})
	case opDrop:
		s.svc.eng.RemoveReplica(int(node), key)
	}
	return nil
}

// replicaCount returns the pool-wide stored replica total, locking each
// shard in turn.
func (p *Pool) replicaCount() int {
	n := 0
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		n += s.svc.eng.ReplicaCount()
		s.mu.Unlock()
	}
	return n
}

// Stats snapshots every shard's counters. Counters are atomics in the
// pool's registry, so the snapshot takes no shard locks and is safe to
// call concurrently with traffic (individual counters are exact; cross-
// counter consistency is best-effort, as with any live scrape).
func (p *Pool) Stats() PoolStats {
	st := PoolStats{Shards: len(p.shards), PerShard: make([]ShardStats, len(p.shards))}
	for i := range p.shards {
		s := &p.shards[i]
		ss := ShardStats{
			Inserts:      s.inserts.Value(),
			Lookups:      s.lookups.Value(),
			Deletes:      s.deletes.Value(),
			LookupsFound: s.lookupsFound.Value(),
		}
		ss.Requests = ss.Inserts + ss.Lookups + ss.Deletes
		if ss.Lookups > 0 {
			ss.LookupSuccessPct = 100 * float64(ss.LookupsFound) / float64(ss.Lookups)
		}
		if ss.LookupsFound > 0 {
			ss.MeanReplyHops = float64(s.replyHops.Value()) / float64(ss.LookupsFound)
		}
		st.PerShard[i] = ss
		st.Requests += ss.Requests
		st.Inserts += ss.Inserts
		st.Lookups += ss.Lookups
		st.Deletes += ss.Deletes
		st.LookupsFound += ss.LookupsFound
	}
	return st
}
