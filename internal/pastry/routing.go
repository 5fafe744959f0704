package pastry

import (
	"discovery/internal/idspace"
)

// appKind distinguishes routed application messages.
type appKind int

const (
	insertKind appKind = iota + 1
	lookupKind
)

// appMsg is one routed attempt of an application request. Each end-to-end
// retry mints a fresh uid; req ties attempts to their pending request.
type appMsg struct {
	uid    uint64
	req    uint64
	kind   appKind
	key    idspace.ID
	value  []byte
	origin int
	hops   int
}

// pendingRequest is the origin-side state of an in-flight insert/lookup.
type pendingRequest struct {
	kind      appKind
	origin    int
	key       idspace.ID
	value     []byte
	done      func(ok bool, hops int)
	succeeded bool
	attempts  int
}

// Insert routes an insertion of key from origin and calls done(ok, hops)
// when the root's acknowledgment arrives or the timeout expires. done may
// be nil.
func (nw *Network) Insert(origin int, key idspace.ID, value []byte, done func(ok bool, hops int)) {
	nw.startRequest(insertKind, origin, key, value, done)
}

// Lookup routes a query for key from origin. done receives (found, hops of
// the successful route) or (false, -1) at timeout. Unanswered attempts are
// re-issued every RetryInterval within LookupTimeout — the end-to-end
// reliability mechanism, since hop-level data is single-shot.
func (nw *Network) Lookup(origin int, key idspace.ID, done func(found bool, hops int)) {
	nw.startRequest(lookupKind, origin, key, nil, done)
}

func (nw *Network) startRequest(kind appKind, origin int, key idspace.ID, value []byte, done func(bool, int)) {
	nw.nextUID++
	req := nw.nextUID
	p := &pendingRequest{kind: kind, origin: origin, key: key, value: value, done: done}
	nw.pending[req] = p

	deadline := nw.sim.Now() + nw.params.LookupTimeout
	var attempt func()
	attempt = func() {
		if p.succeeded {
			return
		}
		if nw.sim.Now() >= deadline {
			delete(nw.pending, req)
			if p.done != nil {
				p.done(false, -1)
			}
			return
		}
		// A perturbed origin cannot transmit; it retries after waking.
		if nw.avail.Online(origin, nw.sim.Now()) {
			p.attempts++
			nw.nextUID++
			m := appMsg{uid: nw.nextUID, req: req, kind: kind, key: key, value: value, origin: origin}
			nw.route(origin, &m)
		}
		nw.sim.After(nw.params.RetryInterval, attempt)
	}
	attempt()
}

// route runs the Pastry routing step at node `at` for message m,
// forwarding until some node delivers locally. Messages sent to perturbed
// nodes vanish (the send layer drops them), which is what ends a failed
// attempt.
func (nw *Network) route(at int, m *appMsg) {
	nd := nw.nodes[at]
	if nd.seen[m.uid] {
		return // routing loop via stale state; drop this copy
	}
	nd.seen[m.uid] = true
	if m.hops >= nw.params.MaxHops {
		return
	}
	if m.kind == insertKind && nw.params.ReplicationOnRoute {
		// "MSPastry with RR": every node on the route stores a replica
		// (paper Section 6.2).
		nd.store[m.key] = m.value
	}
	next := nw.nextHop(at, m.key)
	if next == at {
		nw.deliverLocal(at, m)
		return
	}
	// Forward as a typed wire: the in-flight copy rides in the pooled
	// record, so a hop costs no allocation.
	widx := nw.allocWire()
	w := &nw.wires[widx]
	w.kind, w.from, w.to = wireRoute, int32(at), int32(next)
	w.msg = *m
	w.msg.hops++
	nw.dispatch(ClassData, widx)
}

// deliverLocal handles a message at the node that believes itself the root
// for the key.
func (nw *Network) deliverLocal(at int, m *appMsg) {
	nd := nw.nodes[at]
	switch m.kind {
	case insertKind:
		nd.store[m.key] = m.value
		nw.reply(at, m, m.hops)
	case lookupKind:
		if _, ok := nd.store[m.key]; ok {
			nw.reply(at, m, m.hops)
		}
		// A miss sends nothing: the origin's retry/timeout machinery
		// owns failure. (A believed-root without the object is the
		// misdelivery failure mode that dominates under long
		// perturbation.)
	}
}

// reply sends a direct success reply to the origin.
func (nw *Network) reply(from int, m *appMsg, hops int) {
	widx := nw.allocWire()
	w := &nw.wires[widx]
	w.kind, w.from, w.to = wireReply, int32(from), int32(m.origin)
	w.msg = *m
	w.msg.hops = hops
	nw.dispatch(ClassReply, widx)
}

// finishReply completes a pending request when its success reply arrives.
func (nw *Network) finishReply(req uint64, hops int) {
	p, ok := nw.pending[req]
	if !ok || p.succeeded {
		return
	}
	p.succeeded = true
	delete(nw.pending, req)
	if p.done != nil {
		p.done(true, hops)
	}
}

// nextHop implements Pastry's routing rule at node n for key: leaf set if
// it covers the key, else the routing-table entry for the next digit, else
// the rare-case scan for any known node strictly closer with no shorter
// prefix. Returning n means "deliver locally".
func (nw *Network) nextHop(n int, key idspace.ID) int {
	nd := nw.nodes[n]
	if key == nd.id {
		return n
	}
	half := nw.params.LeafSize / 2
	kw := key.Words()

	// Leaf-set coverage: with full sides, the covered arc runs clockwise
	// from the farthest left member to the farthest right member. A
	// depleted side means this node's view of the ring is too small to
	// exclude anything, so treat the key as covered (small or degraded
	// networks fall back to closest-known routing).
	covered := true
	if len(nd.left) >= half && len(nd.right) >= half {
		lmost := nw.nodes[nd.left[len(nd.left)-1]].w
		rmost := nw.nodes[nd.right[len(nd.right)-1]].w
		covered = kw.Sub(lmost).Cmp(rmost.Sub(lmost)) <= 0
	}
	if covered {
		best := n
		bestW := nd.w
		for _, v := range nw.leafMembersScratch(nd) {
			if vw := nw.nodes[v].w; vw.CloserRing(kw, bestW) {
				best = v
				bestW = vw
			}
		}
		return best
	}

	row := nw.space.SharedPrefixWords(kw, nd.w)
	col := nw.space.Digit(key, row)
	if e := nd.rt[row][col]; e != -1 {
		return e
	}

	// Rare case: any known node with shared prefix >= row that is
	// strictly closer to the key than we are.
	best := n
	bestDist := nd.w.RingDist(kw)
	consider := func(v int) {
		if v < 0 || v == n {
			return
		}
		vw := nw.nodes[v].w
		if nw.space.SharedPrefixWords(kw, vw) < row {
			return
		}
		if d := vw.RingDist(kw); d.Cmp(bestDist) < 0 {
			best = v
			bestDist = d
		}
	}
	for _, v := range nw.leafMembersScratch(nd) {
		consider(v)
	}
	for _, rtRow := range nd.rt {
		for _, v := range rtRow {
			consider(v)
		}
	}
	return best
}

// RouteProbe routes a probe message from origin toward key with no
// availability interference accounting, returning the delivery node and
// hop count synchronously against current state. It is a test/diagnostic
// helper: it consults the same nextHop logic but ignores timing and
// availability.
func (nw *Network) RouteProbe(origin int, key idspace.ID) (deliveredAt, hops int) {
	at := origin
	for h := 0; h < nw.params.MaxHops; h++ {
		next := nw.nextHop(at, key)
		if next == at {
			return at, h
		}
		at = next
	}
	return at, nw.params.MaxHops
}
