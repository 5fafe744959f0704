package pastry

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"discovery/internal/eventsim"
	"discovery/internal/idspace"
	"discovery/internal/overlay"
)

// LatencyFunc returns the one-way delay between two nodes.
type LatencyFunc func(from, to int) time.Duration

// MsgClass categorizes traffic for the paper's Figure 12 accounting.
type MsgClass int

// Traffic classes. Application data and replies are the "lookup traffic"
// of Figure 12 (left); probes, probe replies and repair messages are the
// maintenance background that dominates Figure 12 (right).
const (
	ClassData MsgClass = iota + 1
	ClassReply
	ClassProbe
	ClassProbeReply
	ClassMaint
)

// Counters tallies sent messages by class. Lost messages still count: the
// sender spent the bandwidth.
type Counters struct {
	Data       uint64
	Reply      uint64
	Probe      uint64
	ProbeReply uint64
	Maint      uint64
}

// Lookup returns application traffic (data + replies).
func (c Counters) LookupTraffic() uint64 { return c.Data + c.Reply }

// Total returns all traffic including maintenance.
func (c Counters) Total() uint64 {
	return c.Data + c.Reply + c.Probe + c.ProbeReply + c.Maint
}

// Network is a simulated Pastry overlay: all node state plus the shared
// event clock, availability model, and latency model. It is not safe for
// concurrent use.
type Network struct {
	params Params
	space  idspace.Space
	sim    *eventsim.Sim
	rng    *rand.Rand
	lat    LatencyFunc
	avail  overlay.Availability

	nodes    []*node
	ringIdx  []int // node indices sorted by ID around the ring
	counters Counters
	nextUID  uint64

	maintTimers []eventsim.Timer
	pending     map[uint64]*pendingRequest

	// In-flight messages and probe exchanges live in free-listed arenas
	// and are delivered through two long-lived callbacks (wireFn,
	// probeTimeoutFn) via eventsim's AfterCall, so the steady-state hot
	// path — routing data, probing, repairing — schedules no closures
	// and performs no per-message allocation.
	wires          []wire
	wireFree       int32
	probes         []probeRec
	probeFree      int32
	wireFn         func(uint64)
	probeTimeoutFn func(uint64)
	leafScratch    []int // reused by leafMembersScratch
}

// wireKind discriminates pooled in-flight message payloads.
type wireKind uint8

const (
	wireFunc       wireKind = iota // generic closure payload (cold paths)
	wireRoute                      // routed application data; msg is the copy in flight
	wireReply                      // direct success reply to msg.req's origin
	wireProbe                      // liveness probe; probe indexes the probe arena
	wireProbeReply                 // probe reply on its way back
	wireLeafReq                    // leaf-set repair request (answered with wireCandidates)
	wireRowReq                     // routing-table row request; aux is the row
	wireCandidates                 // node indices for the recipient to consider adopting
)

// wire is one pooled in-flight message. Payload fields are a union
// discriminated by kind; list keeps its backing array across reuses.
type wire struct {
	kind     wireKind
	act      probeAction // wireProbe/wireProbeReply: the probe's onAlive action
	from, to int32
	aux      int32  // wireRowReq: requested row; wireProbe/wireProbeReply: attempt number
	probe    int32  // wireProbe/wireProbeReply: probe arena index
	probeGen uint32 // guards against probe-slot reuse
	deliver  func() // wireFunc payload
	msg      appMsg // wireRoute/wireReply payload
	list     []int  // wireCandidates payload
	next     int32  // free-list link
}

// probeRec is the origin-side state of one probe exchange (all attempts).
// Actions are small enums instead of closures: every probe site in the
// protocol either evicts the target on death or adopts it on liveness,
// and both take exactly (from, to).
type probeRec struct {
	from, to int32
	attempt  int32
	answered bool
	onAlive  probeAction
	onDead   probeAction
	gen      uint32
	next     int32
}

// probeAction names what to do when a probe resolves.
type probeAction uint8

const (
	actionNone          probeAction = iota
	actionEvict                     // declare the probed node failed: evict(from, to)
	actionConsiderAlive             // fold liveness evidence in: considerAlive(from, to)
)

// New builds an n-node Pastry network with converged ("perfect") routing
// state, the state MSPastry reaches on a static overlay — the starting
// condition of the paper's Section 3 and 6.2 experiments. IDs are drawn
// uniformly from the 160-bit space.
func New(n int, params Params, sim *eventsim.Sim, rng *rand.Rand, lat LatencyFunc, avail overlay.Availability) (*Network, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if n < 2 {
		return nil, fmt.Errorf("pastry: need at least 2 nodes, got %d", n)
	}
	if lat == nil {
		lat = func(int, int) time.Duration { return time.Millisecond }
	}
	if avail == nil {
		avail = overlay.AlwaysOn{}
	}
	space := idspace.MustSpace(params.B)
	nw := &Network{
		params:    params,
		space:     space,
		sim:       sim,
		rng:       rng,
		lat:       lat,
		avail:     avail,
		pending:   make(map[uint64]*pendingRequest),
		wireFree:  -1,
		probeFree: -1,
	}
	nw.wireFn = nw.runWire
	nw.probeTimeoutFn = nw.probeTimeout
	seen := make(map[idspace.ID]bool, n)
	rows, cols := space.Digits(), space.Base()
	for i := 0; i < n; i++ {
		var id idspace.ID
		for {
			id = idspace.Random(rng)
			if !seen[id] {
				seen[id] = true
				break
			}
		}
		nw.nodes = append(nw.nodes, newNode(i, id, rows, cols))
	}
	nw.rebuildRing()
	nw.buildPerfectState()
	return nw, nil
}

// rebuildRing refreshes the sorted ring index.
func (nw *Network) rebuildRing() {
	nw.ringIdx = make([]int, len(nw.nodes))
	for i := range nw.ringIdx {
		nw.ringIdx[i] = i
	}
	sort.Slice(nw.ringIdx, func(a, b int) bool {
		return nw.nodes[nw.ringIdx[a]].id.Less(nw.nodes[nw.ringIdx[b]].id)
	})
}

// buildPerfectState fills every leaf set and routing table from global
// knowledge, the converged state of a maintained static overlay.
func (nw *Network) buildPerfectState() {
	n := len(nw.nodes)
	half := nw.params.LeafSize / 2
	pos := make([]int, n) // node idx -> ring position
	for p, idx := range nw.ringIdx {
		pos[idx] = p
	}
	for _, nd := range nw.nodes {
		p := pos[nd.idx]
		nd.left = nd.left[:0]
		nd.right = nd.right[:0]
		for k := 1; k <= half && k < n; k++ {
			nd.right = append(nd.right, nw.ringIdx[(p+k)%n])
			nd.left = append(nd.left, nw.ringIdx[(p-k+n)%n])
		}
	}
	// Routing tables: for each other node m, it is a candidate for cell
	// (sharedPrefix, digit). Keep the first candidate per cell from a
	// shuffled order, approximating proximity-neighbor selection's
	// "some nearby node with the right prefix".
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for _, nd := range nw.nodes {
		nw.rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, m := range order {
			if m == nd.idx {
				continue
			}
			if row, col, ok := nw.rtCell(nd, m); ok && nd.rt[row][col] == -1 {
				nd.rt[row][col] = m
			}
		}
	}
}

// N returns the node count.
func (nw *Network) N() int { return len(nw.nodes) }

// ID returns node i's identifier.
func (nw *Network) ID(i int) idspace.ID { return nw.nodes[i].id }

// Sim returns the event simulator driving this network.
func (nw *Network) Sim() *eventsim.Sim { return nw.sim }

// Counters returns the traffic tallies so far.
func (nw *Network) Counters() Counters { return nw.counters }

// SetAvailability swaps the availability model; the experiments build the
// network and insert under AlwaysOn, then switch to a flapping schedule
// for the lookup stage (paper Section 3 methodology).
func (nw *Network) SetAvailability(av overlay.Availability) {
	if av == nil {
		av = overlay.AlwaysOn{}
	}
	nw.avail = av
}

// Online reports node i's availability now.
func (nw *Network) Online(i int) bool { return nw.avail.Online(i, nw.sim.Now()) }

// Stored reports whether node i currently holds key.
func (nw *Network) Stored(i int, key idspace.ID) bool {
	_, ok := nw.nodes[i].store[key]
	return ok
}

// HoldersOf returns all nodes storing key, ascending.
func (nw *Network) HoldersOf(key idspace.ID) []int {
	var out []int
	for i, nd := range nw.nodes {
		if _, ok := nd.store[key]; ok {
			out = append(out, i)
		}
	}
	return out
}

// TrueRoot returns the node whose ID is numerically closest to key on the
// ring — ground truth for tests.
func (nw *Network) TrueRoot(key idspace.ID) int {
	best := 0
	for i := 1; i < len(nw.nodes); i++ {
		if nw.nodes[i].id.CloserRing(key, nw.nodes[best].id) {
			best = i
		}
	}
	return best
}

// count tallies one sent message.
func (nw *Network) count(class MsgClass) {
	switch class {
	case ClassData:
		nw.counters.Data++
	case ClassReply:
		nw.counters.Reply++
	case ClassProbe:
		nw.counters.Probe++
	case ClassProbeReply:
		nw.counters.ProbeReply++
	case ClassMaint:
		nw.counters.Maint++
	default:
		panic(fmt.Sprintf("pastry: unknown message class %d", class))
	}
}

// allocWire pops a free wire record or grows the arena.
func (nw *Network) allocWire() int32 {
	if nw.wireFree >= 0 {
		idx := nw.wireFree
		nw.wireFree = nw.wires[idx].next
		return idx
	}
	nw.wires = append(nw.wires, wire{})
	return int32(len(nw.wires) - 1)
}

// freeWire returns a wire record to the free list, dropping payload
// references but keeping the list backing array for reuse.
func (nw *Network) freeWire(idx int32) {
	w := &nw.wires[idx]
	w.deliver = nil
	w.msg = appMsg{}
	w.list = w.list[:0]
	w.next = nw.wireFree
	nw.wireFree = idx
}

// send transmits a message with an arbitrary delivery callback: it always
// costs traffic, takes the underlay latency, and is silently lost if the
// recipient is offline on arrival — perturbed nodes are deaf, exactly the
// paper's model. Hot paths use the typed wire kinds instead of this
// closure form.
func (nw *Network) send(from, to int, class MsgClass, deliver func()) {
	idx := nw.allocWire()
	w := &nw.wires[idx]
	w.kind, w.from, w.to, w.deliver = wireFunc, int32(from), int32(to), deliver
	nw.dispatch(class, idx)
}

// dispatch counts one sent message and schedules its arrival through the
// shared runWire callback — no per-message closure.
func (nw *Network) dispatch(class MsgClass, idx int32) {
	nw.count(class)
	w := &nw.wires[idx]
	nw.sim.AfterCall(nw.lat(int(w.from), int(w.to)), nw.wireFn, uint64(idx))
}

// runWire is every wire's arrival handler. The record is freed before the
// payload executes (payload fields copied out first) except for list
// payloads, which are freed after iteration so a nested send cannot
// recycle the record and stomp the backing array mid-loop.
func (nw *Network) runWire(arg uint64) {
	idx := int32(arg)
	w := &nw.wires[idx]
	from, to := int(w.from), int(w.to)
	if !nw.avail.Online(to, nw.sim.Now()) {
		nw.freeWire(idx)
		return
	}
	// Any received message is evidence the sender was recently alive;
	// Pastry folds such evidence into its tables.
	nw.considerAlive(to, from)
	switch w.kind {
	case wireFunc:
		deliver := w.deliver
		nw.freeWire(idx)
		deliver()
	case wireRoute:
		m := w.msg
		nw.freeWire(idx)
		nw.route(to, &m)
	case wireReply:
		req, hops := w.msg.req, w.msg.hops
		nw.freeWire(idx)
		nw.finishReply(req, hops)
	case wireProbe:
		p, gen, att, act := w.probe, w.probeGen, w.aux, w.act
		nw.freeWire(idx)
		// The probed node answers immediately; the reply carries the
		// probe handle back to the origin.
		ridx := nw.allocWire()
		r := &nw.wires[ridx]
		r.kind, r.from, r.to = wireProbeReply, int32(to), int32(from)
		r.probe, r.probeGen, r.aux, r.act = p, gen, att, act
		nw.dispatch(ClassProbeReply, ridx)
	case wireProbeReply:
		p, gen, att, act := w.probe, w.probeGen, w.aux, w.act
		nw.freeWire(idx)
		// Every delivered reply is liveness evidence and runs the
		// probe's onAlive action (as the old per-attempt closures did,
		// even for replies straggling in after their attempt — or the
		// whole probe — has timed out). Only a reply to the probe's
		// current attempt marks it answered; the wire carries enough
		// state (action + endpoints) to be exact regardless of the
		// record's fate.
		rec := &nw.probes[p]
		if rec.gen == gen && rec.attempt == att {
			rec.answered = true
		}
		nw.runProbeAction(act, to, from)
	case wireLeafReq:
		nw.freeWire(idx)
		// The repair source answers with its leaf set plus itself.
		nd := nw.nodes[to]
		ridx := nw.allocWire()
		r := &nw.wires[ridx]
		r.kind, r.from, r.to = wireCandidates, int32(to), int32(from)
		r.list = append(append(append(r.list[:0], nd.left...), nd.right...), to)
		nw.dispatch(ClassMaint, ridx)
	case wireRowReq:
		row := int(w.aux)
		nw.freeWire(idx)
		ridx := nw.allocWire()
		r := &nw.wires[ridx]
		r.kind, r.from, r.to = wireCandidates, int32(to), int32(from)
		r.list = r.list[:0]
		for _, v := range nw.nodes[to].rt[row] {
			if v != -1 && v != from {
				r.list = append(r.list, v)
			}
		}
		nw.dispatch(ClassMaint, ridx)
	case wireCandidates:
		list := w.list
		for _, v := range list {
			nw.considerCandidate(to, v)
		}
		nw.freeWire(idx)
	default:
		panic(fmt.Sprintf("pastry: unknown wire kind %d", w.kind))
	}
}

// leafMembersScratch returns node nd's leaf members in a Network-owned
// scratch buffer, valid until the next call. Hot paths that only iterate
// use it to avoid a per-call allocation; anything that stores the slice
// or reads it after further sends must use node.leafMembers.
func (nw *Network) leafMembersScratch(nd *node) []int {
	nw.leafScratch = append(nw.leafScratch[:0], nd.left...)
	nw.leafScratch = append(nw.leafScratch, nd.right...)
	return nw.leafScratch
}

// Neighbors returns the union of node i's leaf set and routing-table
// entries — the neighbor list MPIL uses when running over Pastry's
// structured overlay without its maintenance (paper Section 6.2).
func (nw *Network) Neighbors(i int) []int {
	nd := nw.nodes[i]
	set := make(map[int]bool, len(nd.left)+len(nd.right)+16)
	var out []int
	add := func(v int) {
		if v != i && v >= 0 && !set[v] {
			set[v] = true
			out = append(out, v)
		}
	}
	for _, v := range nd.left {
		add(v)
	}
	for _, v := range nd.right {
		add(v)
	}
	for _, row := range nd.rt {
		for _, v := range row {
			add(v)
		}
	}
	sort.Ints(out)
	return out
}

// Snapshot freezes the current neighbor lists into an immutable overlay
// view satisfying the mpil.Overlay interface (structurally): N, ID,
// Neighbors, Online. The availability model is shared live with the
// network, so flapping applies to both protocols identically.
type Snapshot struct {
	ids       []idspace.ID
	neighbors [][]int
	avail     overlay.Availability
}

// Snapshot captures the overlay as MPIL would adopt it: the neighbor
// lists of the moment, with no further maintenance.
func (nw *Network) Snapshot() *Snapshot {
	s := &Snapshot{
		ids:       make([]idspace.ID, len(nw.nodes)),
		neighbors: make([][]int, len(nw.nodes)),
		avail:     nw.avail,
	}
	for i := range nw.nodes {
		s.ids[i] = nw.nodes[i].id
		s.neighbors[i] = nw.Neighbors(i)
	}
	return s
}

// SetAvailability rebinds the snapshot's availability model.
func (s *Snapshot) SetAvailability(av overlay.Availability) {
	if av == nil {
		av = overlay.AlwaysOn{}
	}
	s.avail = av
}

// N returns the node count.
func (s *Snapshot) N() int { return len(s.ids) }

// ID returns node i's identifier.
func (s *Snapshot) ID(i int) idspace.ID { return s.ids[i] }

// Neighbors returns node i's frozen neighbor list.
func (s *Snapshot) Neighbors(i int) []int { return s.neighbors[i] }

// Online reports node i's availability at virtual time at.
func (s *Snapshot) Online(i int, at time.Duration) bool { return s.avail.Online(i, at) }
