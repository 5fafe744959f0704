package mpil

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"discovery/internal/idspace"
)

// Engine executes MPIL over an overlay. It owns every node's object
// store, which is the standard monolithic-simulator arrangement: the
// algorithm logic stays a pure per-node step function, and runners
// (synchronous or event-driven) decide when each step happens. Duplicate
// tracking belongs to each request's messages, not to the engine.
//
// Engine is not safe for concurrent use; clone one per goroutine.
type Engine struct {
	cfg Config
	ov  Overlay
	rng *rand.Rand

	// ids holds every node's overlay ID, decoded once at construction
	// (an overlay's IDs are fixed for its life), so the routing metric
	// reads words straight from memory.
	ids    []idspace.Words
	stores []map[idspace.ID]Replica

	// cands and fwds are step()'s scratch buffers, reused across calls
	// so the routing hot loop allocates nothing in steady state.
	cands []int
	fwds  []forward
}

// NewEngine validates cfg and builds an engine over ov. The rng drives tie
// sampling when a node must pick a subset of equally-good next hops.
func NewEngine(ov Overlay, cfg Config, rng *rand.Rand) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ov.N() == 0 {
		return nil, fmt.Errorf("mpil: overlay has no nodes")
	}
	if cfg.MaxHops == 0 {
		cfg.MaxHops = ov.N()
	}
	n := ov.N()
	e := &Engine{
		cfg:    cfg,
		ov:     ov,
		rng:    rng,
		ids:    make([]idspace.Words, n),
		stores: make([]map[idspace.ID]Replica, n),
	}
	for i := range e.stores {
		e.ids[i] = ov.ID(i).Words()
		e.stores[i] = make(map[idspace.ID]Replica)
	}
	return e, nil
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Overlay returns the overlay the engine routes over.
func (e *Engine) Overlay() Overlay { return e.ov }

// HoldersOf returns the nodes currently storing key, sorted ascending.
func (e *Engine) HoldersOf(key idspace.ID) []int {
	var out []int
	for i, st := range e.stores {
		if _, ok := st[key]; ok {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

// Stored returns the replica of key at node i, if present.
func (e *Engine) Stored(i int, key idspace.ID) (Replica, bool) {
	r, ok := e.stores[i][key]
	return r, ok
}

// RemoveReplica deletes key's replica at node i, reporting whether one was
// present. The deletion protocol of Section 4.4 calls this when a replica
// holder receives an explicit delete from the object's owner.
func (e *Engine) RemoveReplica(i int, key idspace.ID) bool {
	if _, ok := e.stores[i][key]; !ok {
		return false
	}
	delete(e.stores[i], key)
	return true
}

// forward is one outgoing copy produced by a step.
type forward struct {
	to  int
	msg *Message
}

// stepResult is everything a single node's processing of one message
// produced. Runners translate it into deliveries.
type stepResult struct {
	// discarded is true when duplicate suppression dropped the message
	// before processing.
	discarded bool
	// duplicate is true when the node had seen the request before
	// (counted whether or not DS then discards it).
	duplicate bool
	// stored is true when an insertion placed a replica here.
	stored bool
	// hit is true when a lookup found the key here.
	hit bool
	// forwards lists the outgoing copies. It aliases an engine-owned
	// scratch buffer and is valid only until the next step call; runners
	// must consume (or copy) it before stepping again.
	forwards []forward
	// branches is max(m-1, 0): the number of additional flows created.
	branches int
}

// step runs the MPIL routing algorithm (paper Figure 5) at node n for
// message m. It mutates only the engine's stores, the request's seen set
// and the message's ReplicasLeft before cloning children.
func (e *Engine) step(n int, m *Message) stepResult {
	var res stepResult

	// One assignment marks n; the set not growing means n had the
	// request already.
	before := len(m.seen)
	m.seen[n] = struct{}{}
	if len(m.seen) == before {
		res.duplicate = true
		if e.cfg.DuplicateSuppression {
			res.discarded = true
			return res
		}
	}

	key := m.Key
	k := key.Words()

	// Candidate list: argmax of the routing metric over neighbors not on
	// the route (and never back to self — a simple graph has no
	// self-edges, but an arbitrary Overlay might include one).
	// In parallel, find the best metric over ALL neighbors: the local
	// maximum test of Figure 5 compares against the full neighbor list.
	hasBestCand := false
	var bestCand uint64
	cands := e.cands[:0]
	hasBestAll := false
	var bestAll uint64
	for _, nb := range e.ov.Neighbors(n) {
		if nb == n {
			continue
		}
		c := e.score(k, e.ids[nb])
		if !hasBestAll || c > bestAll {
			hasBestAll = true
			bestAll = c
		}
		if m.onRoute(nb) {
			continue
		}
		switch {
		case !hasBestCand || c > bestCand:
			hasBestCand = true
			bestCand = c
			cands = cands[:0]
			cands = append(cands, nb)
		case c == bestCand:
			cands = append(cands, nb)
		}
	}
	e.cands = cands[:0] // retain any growth for the next step

	selfVal := e.score(k, e.ids[n])
	isDest := !hasBestAll || selfVal >= bestAll // no neighbor strictly better: local maximum

	switch m.Kind {
	case KindInsert:
		if isDest {
			if _, exists := e.stores[n][key]; !exists {
				e.stores[n][key] = Replica{Key: key, Value: m.Value, Origin: m.Origin}
				res.stored = true
			}
			m.ReplicasLeft--
			if m.ReplicasLeft <= 0 {
				return res
			}
		}
	case KindLookup:
		// Every recipient checks its store (Section 4.4); a hit stops
		// this flow and replies directly to the origin.
		if _, ok := e.stores[n][key]; ok {
			res.hit = true
			return res
		}
		if isDest {
			m.ReplicasLeft--
			if m.ReplicasLeft <= 0 {
				return res
			}
		}
	default:
		panic(fmt.Sprintf("mpil: unknown message kind %v", m.Kind))
	}

	if len(cands) == 0 || len(m.Route) >= e.cfg.MaxHops {
		return res
	}

	// Paths-limiting algorithm (Section 4.3). given_flows is 0 for the
	// originator's initial send and 1 for every relay.
	given := 1
	if len(m.Route) == 0 {
		given = 0
	}
	budget := m.MaxFlows + given
	if budget <= 0 {
		return res
	}
	mCount := len(cands)
	if mCount > budget {
		mCount = budget
	}

	chosen := cands
	if mCount < len(cands) {
		// Sample mCount candidates uniformly (the paper leaves the
		// choice among equals unspecified).
		e.rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		chosen = cands[:mCount]
	}

	// Distribute the remaining quota: total = max_flows - (m - given),
	// base share total/m, residue spread one-by-one round-robin (or
	// discarded under the QuotaSplitEqual ablation).
	total := m.MaxFlows - (mCount - given)
	base := total / mCount
	residue := total % mCount
	if e.cfg.QuotaSplit == QuotaSplitEqual {
		residue = 0
	}
	fwds := e.fwds[:0]
	for i, to := range chosen {
		share := base
		if i < residue {
			share++
		}
		fwds = append(fwds, forward{to: to, msg: m.child(n, share)})
	}
	e.fwds = fwds
	res.forwards = fwds
	res.branches = mCount - 1
	return res
}

// score evaluates the configured routing metric between a decoded key
// and node ID as an integer where higher means closer to the key.
func (e *Engine) score(key, id idspace.Words) uint64 {
	switch e.cfg.Metric {
	case MetricCommonDigits:
		return uint64(e.cfg.Space.CommonDigitsWords(key, id))
	case MetricSharedPrefix:
		return uint64(e.cfg.Space.SharedPrefixWords(key, id))
	case MetricXOR:
		// Inverted top 64 bits of the XOR distance: higher = closer.
		// Ties require the top 64 bits of two distances to coincide,
		// which for random IDs essentially never happens — the point
		// of this ablation arm.
		return ^(key.W0 ^ id.W0)
	default:
		panic(fmt.Sprintf("mpil: unknown metric %v", e.cfg.Metric))
	}
}

// newMessage mints a request message with an empty seen set, which
// every copy of the request shares.
func (e *Engine) newMessage(kind Kind, origin int, key idspace.ID, value []byte) *Message {
	return &Message{
		seen:         make(map[int]struct{}),
		Kind:         kind,
		Key:          key,
		Value:        value,
		Origin:       origin,
		MaxFlows:     e.cfg.MaxFlows,
		ReplicasLeft: e.cfg.PerFlowReplicas,
	}
}

// delivery is a queue entry for the synchronous runner.
type delivery struct {
	to  int
	msg *Message
}

// Insert performs a static (instantaneous) insertion of key from origin,
// as in the paper's Section 6.1 experiments. Availability is evaluated at
// virtual time at; offline nodes silently lose messages.
func (e *Engine) Insert(origin int, key idspace.ID, value []byte, at time.Duration) InsertStats {
	var st InsertStats
	st.Flows = 1
	msg := e.newMessage(KindInsert, origin, key, value)
	queue := []delivery{{to: origin, msg: msg}}
	for len(queue) > 0 {
		d := queue[0]
		queue = queue[1:]
		if !e.ov.Online(d.to, at) {
			st.Dropped++
			continue
		}
		r := e.step(d.to, d.msg)
		if r.duplicate {
			st.Duplicates++
		}
		if r.discarded {
			continue
		}
		if r.stored {
			st.Replicas++
		}
		st.Flows += r.branches
		st.Messages += len(r.forwards)
		for _, f := range r.forwards {
			queue = append(queue, delivery{to: f.to, msg: f.msg})
		}
	}
	return st
}

// Lookup performs a static lookup of key from origin. Messages propagate
// in BFS order, so FirstReplyHops is the minimum forward-path length over
// all replica holders reached.
func (e *Engine) Lookup(origin int, key idspace.ID, at time.Duration) LookupStats {
	st := LookupStats{FirstReplyHops: -1, Flows: 1}
	msg := e.newMessage(KindLookup, origin, key, nil)
	queue := []delivery{{to: origin, msg: msg}}
	for len(queue) > 0 {
		d := queue[0]
		queue = queue[1:]
		if !e.ov.Online(d.to, at) {
			st.Dropped++
			continue
		}
		r := e.step(d.to, d.msg)
		if r.duplicate {
			st.Duplicates++
		}
		if r.discarded {
			continue
		}
		if r.hit {
			st.Replies++
			if !st.Found {
				st.Found = true
				st.FirstReplyHops = len(d.msg.Route)
			}
			continue
		}
		st.Flows += r.branches
		st.Messages += len(r.forwards)
		for _, f := range r.forwards {
			queue = append(queue, delivery{to: f.to, msg: f.msg})
		}
	}
	return st
}

// LookupWith runs a single lookup under an override configuration while
// keeping the engine's stores. The paper's Tables 1 and 2 are exactly this
// shape: one heavy insertion pass (max_flows 30, 5 per-flow replicas)
// followed by lookup sweeps over a (max_flows, per-flow replicas) grid.
func (e *Engine) LookupWith(cfg Config, origin int, key idspace.ID, at time.Duration) (LookupStats, error) {
	if err := cfg.Validate(); err != nil {
		return LookupStats{}, err
	}
	if cfg.MaxHops == 0 {
		cfg.MaxHops = e.ov.N()
	}
	old := e.cfg
	e.cfg = cfg
	defer func() { e.cfg = old }()
	return e.Lookup(origin, key, at), nil
}

// Delete implements the explicit deletion of Section 4.4: the owner sends
// a delete directly to every current replica holder (which in a deployed
// system it learns from replica heartbeats; the engine, owning all stores,
// plays the heartbeat ledger here). It returns the number of replicas
// removed. Offline holders keep their replica — exactly the stale-replica
// behavior heartbeats exist to reconcile later.
func (e *Engine) Delete(origin int, key idspace.ID, at time.Duration) int {
	removed := 0
	for _, holder := range e.HoldersOf(key) {
		r := e.stores[holder][key]
		if r.Origin != origin {
			continue
		}
		if !e.ov.Online(holder, at) {
			continue
		}
		if e.RemoveReplica(holder, key) {
			removed++
		}
	}
	return removed
}
