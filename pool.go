package discovery

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"discovery/internal/metrics"
	"discovery/internal/snapshot"
)

// Pool is a concurrency-safe, sharded store of discovery pointers: each
// key holds exactly one entry — its value and the origin that inserted
// it — in the one shard its bytes hash to (ShardOf). Insert replaces the
// entry; Delete removes it only for the origin that inserted it (paper
// Section 4.4). Calls for different shards proceed in parallel; calls for
// the same shard serialize on that shard's mutex, and the shard's state
// after any sequence of operations depends on nothing but that sequence.
//
// Unlike Service, a Pool routes nothing: the overlay only sizes the
// origin space (AutoOrigin). Pool is what a cluster member serves
// (internal/server, internal/p2p), where placement across processes is
// region hashing plus R-way replication.
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

// poolShard is one store plus its serialization lock, commit combiner
// and counters. The counters live in the pool's metrics registry (a
// private one unless WithMetrics supplied a shared registry), so a live
// /metrics scrape and Pool.Stats read the same atomics; increments happen
// while the shard executes a request under mu, reads are lock-free.
type poolShard struct {
	mu  sync.Mutex // st and dur: held by a combiner round and by readers
	st  store
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
}

// What a store operation reports in the engine-shaped result types:
// every request is one message and one flow straight to the key's shard,
// and there it finds (or stores) the key's one entry.
var (
	storedOne  = InsertResult{Replicas: 1, Messages: 1, Flows: 1}
	lookupHit  = LookupResult{Found: true, Replies: 1, Messages: 1, Flows: 1}
	lookupMiss = LookupResult{FirstReplyHops: -1, Messages: 1, Flows: 1}
)

// NewPool builds a pool of shards over one overlay. shards <= 0 selects
// GOMAXPROCS. WithRegion, WithReplication and WithMetrics configure the
// pool; the engine options (WithSeed, WithMaxFlows, ...) are accepted and
// ignored, since a pool routes nothing.
func NewPool(ov Overlay, shards int, opts ...Option) (*Pool, error) {
	if ov == nil {
		return nil, fmt.Errorf("discovery: nil overlay")
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	base := config{regionCount: 1, replication: 1}
	for _, opt := range opts {
		opt(&base)
	}
	if err := base.checkPlacement(); err != nil {
		return nil, err
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
		s := &p.shards[i]
		s.inserts = reg.Counter(fmt.Sprintf("pool.ops{op=insert,shard=%d}", i))
		s.lookups = reg.Counter(fmt.Sprintf("pool.ops{op=lookup,shard=%d}", i))
		s.deletes = reg.Counter(fmt.Sprintf("pool.ops{op=delete,shard=%d}", i))
		s.lookupsFound = reg.Counter(fmt.Sprintf("pool.lookups_found{shard=%d}", i))
	}
	return p, nil
}

// NumShards returns the shard count.
func (p *Pool) NumShards() int { return len(p.shards) }

// Overlay returns the overlay the pool was built over.
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

// AutoOrigin deterministically picks an origin for key, for callers
// (like the server) that accept requests with no origin attached. The
// choice is spread uniformly and is independent of the shard mapping.
func (p *Pool) AutoOrigin(key ID) int {
	return int((fnv1a(key) >> 32) % uint64(p.ov.N()))
}

// Insert stores value under key on behalf of origin, replacing any entry
// key already has: a batch of one through the owning shard's commit
// combiner (see ExecBatch). On a durable pool the operation is logged
// (and, per the fsync policy, made durable) before it executes; a logging
// failure returns the error with the store untouched. In-memory pools
// only refuse foreign-region keys.
func (p *Pool) Insert(origin int, key ID, value []byte) (InsertResult, error) {
	op := [1]BatchOp{{Kind: BatchInsert, Origin: origin, Key: key, Value: value}}
	p.submit(p.ShardOf(key), op[:])
	return op[0].Insert, op[0].Err
}

// Lookup reports whether key is stored; origin does not affect the
// answer. Unlike Insert and Delete, lookups are deliberately NOT
// region-checked: a region-restricted pool answers a foreign key
// honestly from its local state (not found), because reads are harmless
// and refusing them would break inspection tooling. Callers that want cluster-wide reads must
// route lookups to the key's owning node (internal/p2p does this in
// front of the pool); a direct Lookup on a non-owner only reflects
// local state.
func (p *Pool) Lookup(origin int, key ID) LookupResult {
	s := &p.shards[p.ShardOf(key)]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lookup(key)
}

// lookup is Lookup's counted body; the caller holds s.mu.
func (s *poolShard) lookup(key ID) LookupResult {
	s.lookups.Inc()
	if _, ok := s.st.get(key); !ok {
		return lookupMiss
	}
	s.lookupsFound.Inc()
	return lookupHit
}

// deleteOwned removes key's entry if origin inserted it — only the
// inserting origin may delete (paper Section 4.4) — and returns the
// number of entries removed. The caller holds s.mu.
func (s *poolShard) deleteOwned(origin uint32, key ID) int {
	if e, ok := s.st.get(key); !ok || e.origin != origin {
		return 0
	}
	s.st.del(key)
	return 1
}

// Delete removes key's entry if origin inserted it, returning how many
// entries it removed (0 or 1). Like Insert, it is a batch of one and
// durable pools log it before applying.
func (p *Pool) Delete(origin int, key ID) (int, error) {
	op := [1]BatchOp{{Kind: BatchDelete, Origin: origin, Key: key}}
	p.submit(p.ShardOf(key), op[:])
	return op[0].Removed, op[0].Err
}

// BatchKind tags one operation of an ExecBatch.
type BatchKind uint8

// Batch operation kinds. The first three mirror Insert, Lookup and
// Delete; BatchPut is ImportReplica's batched twin — an entry copied from
// a peer, used by the cluster transfer and repair receive paths so a
// whole entry page imports under one shard-lock acquisition and one
// group-committed WAL append.
const (
	BatchInsert BatchKind = iota + 1
	BatchLookup
	BatchDelete
	BatchPut
	// batchDrop is DropReplica's op: remove Key's entry, neither
	// origin-restricted nor region-checked. Removed reports 1 when an
	// entry was dropped.
	batchDrop
)

// BatchOp is one operation of a shard batch executed by ExecBatch. Kind,
// Origin, Key and Value are the request; exactly one result field is
// filled on success, and Err reports a refused or failed operation (the
// other ops of the batch are unaffected).
type BatchOp struct {
	Kind   BatchKind
	Origin int
	Key    ID
	Value  []byte // insert payload; retained by the store on success

	Insert  InsertResult
	Lookup  LookupResult
	Removed int
	Err     error

	// skip marks a BatchPut whose exact entry (origin, value) is already
	// stored: it succeeds without a write-ahead record or a store write.
	// Anti-entropy re-pulls the same pages over and over; without this,
	// every periodic pass would re-log the whole keyspace.
	skip bool
}

// ExecBatch executes ops — whose keys must all map to the same shard —
// in order, through the shard's commit combiner: the only way a mutation
// reaches a store. A caller that finds the shard idle runs its batch
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

	// The already-stored checks below read pre-round store state, so they
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
				if _, shadowed := touched[op.Key]; !shadowed {
					// A byte-identical entry already stored (and durably
					// logged when it first landed), or nothing to drop:
					// succeed with no write-ahead record and no store write.
					e, ok := s.st.get(op.Key)
					if op.Kind == BatchPut {
						op.skip = ok && e.origin == uint32(op.Origin) && bytes.Equal(e.value, op.Value)
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
				s.st.put(op.Key, uint32(op.Origin), op.Value)
				op.Insert = storedOne
			case BatchLookup:
				op.Lookup = s.lookup(op.Key)
			case BatchDelete:
				s.deletes.Inc()
				op.Removed = s.deleteOwned(uint32(op.Origin), op.Key)
			case BatchPut:
				// Copied entries are transfer and anti-entropy traffic, not
				// client requests, so they skip the counters.
				s.st.put(op.Key, uint32(op.Origin), op.Value)
			case batchDrop:
				if s.st.del(op.Key) {
					op.Removed = 1
				}
			}
		}
	}
	return walNanos, merged
}

// ImportReplica stores an entry copied from a peer, write-ahead logged on
// durable pools: a batch of one BatchPut. The key must belong to this
// pool's region, and the pool retains value. The leading argument is
// ignored; it named an engine node when each key had several copies.
func (p *Pool) ImportReplica(_ int, origin uint32, key ID, value []byte) error {
	op := [1]BatchOp{{Kind: BatchPut, Origin: int(origin), Key: key, Value: value}}
	p.submit(p.ShardOf(key), op[:])
	return op[0].Err
}

// ReplicaEntry is one entry applied by ImportBatch: ImportReplica's
// arguments in batch form.
type ReplicaEntry struct {
	Origin uint32
	Key    ID
	Value  []byte // retained by the pool on success
}

// ImportBatch stores a batch of entries copied from a peer, grouping them
// by owning shard so each group applies under ONE shard-lock acquisition
// and — on durable pools — ONE group-committed write-ahead append, instead
// of ImportReplica's per-entry lock and fsync rounds. It is the receive
// half of a batched cluster transfer (TTransfer / TRepairOK pages in
// internal/p2p).
//
// The result state is exactly what applying the entries one by one
// through ImportReplica would produce: order within a shard is preserved,
// and a refused entry (foreign region) skips only itself. accepted counts
// the entries the pool now holds — including entries already stored
// byte-identically, which succeed without a write-ahead record or store
// write — so a transfer sender may drop its copy of every accepted entry.
// fresh counts the subset that actually mutated state: anti-entropy uses
// it to tell a converging pull from a steady-state re-walk. firstErr is
// the first refusal or failure encountered, nil when every entry landed.
// A failed group append fails that whole group — none of its entries is
// known durable, so none of them executes.
func (p *Pool) ImportBatch(entries []ReplicaEntry) (accepted, fresh int, firstErr error) {
	if len(entries) == 0 {
		return 0, 0, nil
	}
	byShard := make([][]BatchOp, len(p.shards))
	for _, e := range entries {
		si := p.ShardOf(e.Key)
		byShard[si] = append(byShard[si], BatchOp{Kind: BatchPut, Origin: int(e.Origin), Key: e.Key, Value: e.Value})
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

// DropReplica removes key's entry, if any, write-ahead logged on durable
// pools. It is the send half of a replica transfer: once the owner has
// acknowledged the copy, the local one is dropped. Unlike Delete it is
// not origin-restricted, and it deliberately skips the region check —
// handing off foreign keys is its purpose.
func (p *Pool) DropReplica(key ID) (bool, error) {
	op := [1]BatchOp{{Kind: batchDrop, Key: key}}
	p.submit(p.ShardOf(key), op[:])
	return op[0].Removed == 1, op[0].Err
}

// ForEachReplica visits every stored entry in (shard, key) order, locking
// each shard in turn. The value slice aliases store memory and must be
// treated as read-only; it remains valid after the callback returns
// (the store never mutates stored bytes).
func (p *Pool) ForEachReplica(fn func(origin uint32, key ID, value []byte)) {
	p.ForEachReplicaFrom(ReplicaCursor{}, func(origin uint32, key ID, value []byte) bool {
		fn(origin, key, value)
		return true
	})
}

// ReplicaCursor marks a resume position in the pool's stable iteration
// order: shard ascending, then key ascending. The zero cursor is the
// start of the store. Cursors are meaningful across calls (and across
// processes with the same shard count) because the order depends only on
// the shard mapping and the key bytes.
type ReplicaCursor struct {
	Shard uint32
	Key   ID
}

// ForEachReplicaFrom visits stored entries in stable (shard, key) order
// starting at the first position at or after cur, locking one shard at a
// time. fn returning false stops the walk at that entry: shards past the
// stop point are never visited and their locks never taken, and each
// call seeks to its start in O(log n), which is what makes a
// byte-budgeted caller (peer repair) cheap on a large store. next is the
// cursor of the first unvisited entry — the one fn rejected — so passing
// it back resumes the walk there; done reports that the walk reached the
// end of the store instead. Values alias store memory, exactly as in
// ForEachReplica.
//
// Entries added or removed between paginated calls may be missed or
// revisited, as with any cursor over live state; anti-entropy converges
// by re-running.
func (p *Pool) ForEachReplicaFrom(cur ReplicaCursor, fn func(origin uint32, key ID, value []byte) bool) (next ReplicaCursor, done bool) {
	// Cursors arrive off the wire (peer repair): a shard at or past the
	// end means the walk is over, and the explicit >= guard also keeps a
	// hostile cursor from going negative through int() on 32-bit builds.
	if cur.Shard >= uint32(len(p.shards)) {
		return ReplicaCursor{}, true
	}
	for si := int(cur.Shard); si < len(p.shards); si++ {
		var from ID
		if si == int(cur.Shard) {
			from = cur.Key
		}
		s := &p.shards[si]
		s.mu.Lock()
		var stop ID
		complete := s.st.ascend(from, func(e *entry) bool {
			if fn(e.origin, e.key, e.value) {
				return true
			}
			stop = e.key
			return false
		})
		s.mu.Unlock()
		if !complete {
			return ReplicaCursor{Shard: uint32(si), Key: stop}, false
		}
	}
	return ReplicaCursor{}, true
}

// ReplicaCount returns the pool-wide stored entry total, locking each
// shard in turn.
func (p *Pool) ReplicaCount() int {
	n := 0
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		n += s.st.n
		s.mu.Unlock()
	}
	return n
}

// Value returns the payload stored under key, if any.
func (p *Pool) Value(key ID) ([]byte, bool) {
	s := &p.shards[p.ShardOf(key)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.st.get(key); ok {
		return e.value, true
	}
	return nil, false
}

// ShardStats is one shard's counter snapshot.
type ShardStats struct {
	Requests uint64
	Inserts  uint64
	Lookups  uint64
	Deletes  uint64
	// LookupsFound counts lookups that found their key.
	LookupsFound uint64
	// LookupSuccessPct is the shard's lookup success rate in percent.
	LookupSuccessPct float64
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

// exportShardLocked returns shard i's entries in key order, so identical
// states serialize to identical snapshot bytes. The values alias store
// memory (which never mutates stored bytes); the caller holds the
// shard's lock.
func (p *Pool) exportShardLocked(i int) []snapshot.Entry {
	st := &p.shards[i].st
	out := make([]snapshot.Entry, 0, st.n)
	st.ascend(ID{}, func(e *entry) bool {
		out = append(out, snapshot.Entry{Origin: e.origin, Key: e.key, Value: e.value})
		return true
	})
	return out
}

// restoreShard loads exported entries back into shard i.
func (p *Pool) restoreShard(i int, entries []snapshot.Entry) {
	s := &p.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range entries {
		s.st.put(e.Key, e.Origin, e.Value)
	}
}

// applyShard re-executes one logged mutation on shard i during recovery.
// It bypasses the write-ahead log (the record is already in it), the
// region check (the log only ever holds keys the pool accepted), and the
// request counters (a replayed operation was served by a previous
// process, not this one).
func (p *Pool) applyShard(i int, kind opKind, origin uint32, key ID, value []byte) {
	s := &p.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	switch kind {
	case opInsert, opPut:
		s.st.put(key, origin, value)
	case opDelete:
		s.deleteOwned(origin, key)
	case opDrop:
		s.st.del(key)
	}
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
		st.PerShard[i] = ss
		st.Requests += ss.Requests
		st.Inserts += ss.Inserts
		st.Lookups += ss.Lookups
		st.Deletes += ss.Deletes
		st.LookupsFound += ss.LookupsFound
	}
	return st
}
