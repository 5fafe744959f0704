package pastry

import (
	"time"
)

// StartMaintenance launches every node's periodic maintenance loops: leaf-
// set probing (LeafsetProbePeriod), routing-table probing (RTProbePeriod),
// and the slow routing-table sweep (RTMaintPeriod). Initial phases are
// jittered per node so the network doesn't probe in lockstep. Call
// StopMaintenance to cancel.
func (nw *Network) StartMaintenance() {
	if len(nw.maintTimers) > 0 {
		return // already running
	}
	for i := range nw.nodes {
		i := i
		jitter := func(p time.Duration) time.Duration {
			return time.Duration(nw.rng.Int63n(int64(p)))
		}
		nw.maintTimers = append(nw.maintTimers,
			nw.sim.Every(jitter(nw.params.LeafsetProbePeriod), nw.params.LeafsetProbePeriod, func() {
				nw.leafsetProbeTick(i)
			}),
			nw.sim.Every(jitter(nw.params.RTProbePeriod), nw.params.RTProbePeriod, func() {
				nw.rtProbeTick(i)
			}),
			nw.sim.Every(jitter(nw.params.RTMaintPeriod), nw.params.RTMaintPeriod, func() {
				nw.rtMaintTick(i)
			}),
		)
	}
}

// StopMaintenance cancels all maintenance loops.
func (nw *Network) StopMaintenance() {
	for _, t := range nw.maintTimers {
		t.Cancel()
	}
	nw.maintTimers = nil
}

// MaintenanceRunning reports whether maintenance loops are active.
func (nw *Network) MaintenanceRunning() bool { return len(nw.maintTimers) > 0 }

// leafsetProbeTick probes the next leaf-set member in round-robin order.
// MSPastry coalesces its liveness traffic to roughly one probe per node
// per period, which is what keeps its background load modest (Figure 12).
func (nw *Network) leafsetProbeTick(i int) {
	if !nw.Online(i) {
		return // perturbed nodes are unresponsive and originate nothing
	}
	nd := nw.nodes[i]
	members := nw.leafMembersScratch(nd)
	if len(members) == 0 {
		// Totally depleted leaf set: fall back to any routing-table
		// entry to rejoin the ring neighborhood.
		for _, row := range nd.rt {
			for _, v := range row {
				if v != -1 {
					members = append(members, v)
				}
			}
			if len(members) > 0 {
				break
			}
		}
		if len(members) == 0 {
			return
		}
	}
	target := members[nd.probeCursor%len(members)]
	nd.probeCursor++
	nw.probe(i, target, actionNone, actionEvict)
}

// rtProbeTick probes the next occupied routing-table cell in scan order.
func (nw *Network) rtProbeTick(i int) {
	if !nw.Online(i) {
		return
	}
	nd := nw.nodes[i]
	rows, cols := len(nd.rt), len(nd.rt[0])
	for scanned := 0; scanned < rows*cols; scanned++ {
		r, c := nd.rtProbeRow, nd.rtProbeCol
		nd.rtProbeCol++
		if nd.rtProbeCol == cols {
			nd.rtProbeCol = 0
			nd.rtProbeRow = (nd.rtProbeRow + 1) % rows
		}
		if target := nd.rt[r][c]; target != -1 {
			nw.probe(i, target, actionNone, actionEvict)
			return
		}
	}
}

// rtMaintTick is the slow sweep: ask a random leaf-set member for a random
// routing-table row and merge whatever comes back.
func (nw *Network) rtMaintTick(i int) {
	if !nw.Online(i) {
		return
	}
	nd := nw.nodes[i]
	members := nw.leafMembersScratch(nd)
	if len(members) == 0 {
		return
	}
	target := members[nw.rng.Intn(len(members))]
	row := nw.rng.Intn(len(nd.rt))
	// The target answers with its row's entries (wireRowReq builds the
	// response when the request arrives, so the entries reflect the
	// target's state at that instant, as a real exchange would).
	widx := nw.allocWire()
	w := &nw.wires[widx]
	w.kind, w.from, w.to, w.aux = wireRowReq, int32(i), int32(target), int32(row)
	nw.dispatch(ClassMaint, widx)
}

// allocProbe pops a free probe record or grows the arena.
func (nw *Network) allocProbe() int32 {
	if nw.probeFree >= 0 {
		idx := nw.probeFree
		nw.probeFree = nw.probes[idx].next
		return idx
	}
	nw.probes = append(nw.probes, probeRec{})
	return int32(len(nw.probes) - 1)
}

// freeProbe retires a resolved probe record, bumping its generation so
// any straggling reply wire is ignored.
func (nw *Network) freeProbe(idx int32) {
	rec := &nw.probes[idx]
	rec.gen++
	rec.next = nw.probeFree
	nw.probeFree = idx
}

// probe starts a liveness probe with the paper's timeout/retry discipline
// (3 s, 2 retries). The whole exchange — probe out, reply back, timeout,
// retries — runs through pooled records and allocates nothing in steady
// state. onAlive runs when a reply arrives; onDead runs when the final
// attempt times out unanswered.
func (nw *Network) probe(from, to int, onAlive, onDead probeAction) {
	idx := nw.allocProbe()
	rec := &nw.probes[idx]
	rec.from, rec.to, rec.attempt, rec.answered = int32(from), int32(to), 0, false
	rec.onAlive, rec.onDead = onAlive, onDead
	nw.probeSend(idx)
}

// probeSend transmits one probe attempt and arms its timeout. The wire
// carries the attempt number and the onAlive action so a reply can be
// handled exactly even if it straggles in behind later attempts.
func (nw *Network) probeSend(idx int32) {
	rec := &nw.probes[idx]
	widx := nw.allocWire()
	w := &nw.wires[widx]
	w.kind, w.from, w.to = wireProbe, rec.from, rec.to
	w.probe, w.probeGen, w.aux, w.act = idx, rec.gen, rec.attempt, rec.onAlive
	nw.dispatch(ClassProbe, widx)
	nw.sim.AfterCall(nw.params.ProbeTimeout, nw.probeTimeoutFn, uint64(idx))
}

// probeTimeout resolves one attempt: answered probes retire the record,
// unanswered ones retry until the retry budget runs out, then the target
// is declared failed.
func (nw *Network) probeTimeout(arg uint64) {
	idx := int32(arg)
	rec := &nw.probes[idx]
	if rec.answered {
		nw.freeProbe(idx)
		return
	}
	if int(rec.attempt) < nw.params.ProbeRetries {
		rec.attempt++
		nw.probeSend(idx)
		return
	}
	onDead, from, to := rec.onDead, int(rec.from), int(rec.to)
	nw.freeProbe(idx)
	nw.runProbeAction(onDead, from, to)
}

// runProbeAction executes a probe resolution action.
func (nw *Network) runProbeAction(a probeAction, from, to int) {
	switch a {
	case actionNone:
	case actionEvict:
		nw.evict(from, to)
	case actionConsiderAlive:
		nw.considerAlive(from, to)
	}
}

// evict removes a node declared failed from all of i's tables and starts
// leaf-set repair if a side got depleted.
func (nw *Network) evict(i, failed int) {
	nd := nw.nodes[i]
	inLeaf := nd.removeLeaf(failed)
	if row, col, ok := nw.rtCell(nd, failed); ok && nd.rt[row][col] == failed {
		nd.rt[row][col] = -1
	}
	if inLeaf {
		nw.repairLeafset(i)
	}
}

// repairLeafset asks the farthest surviving member on each depleted side
// for its leaf set and merges the response. With both sides empty it asks
// any remaining contact.
func (nw *Network) repairLeafset(i int) {
	nd := nw.nodes[i]
	half := nw.params.LeafSize / 2
	var sources []int
	if len(nd.left) < half && len(nd.left) > 0 {
		sources = append(sources, nd.left[len(nd.left)-1])
	}
	if len(nd.right) < half && len(nd.right) > 0 {
		sources = append(sources, nd.right[len(nd.right)-1])
	}
	if len(sources) == 0 {
		if members := nw.leafMembersScratch(nd); len(members) > 0 {
			sources = append(sources, members[nw.rng.Intn(len(members))])
		} else {
			for _, row := range nd.rt {
				for _, v := range row {
					if v != -1 {
						sources = append(sources, v)
						break
					}
				}
				if len(sources) > 0 {
					break
				}
			}
		}
	}
	for _, src := range sources {
		// src answers with its leaf set plus itself (wireLeafReq builds
		// the response on arrival at src).
		widx := nw.allocWire()
		w := &nw.wires[widx]
		w.kind, w.from, w.to = wireLeafReq, int32(i), int32(src)
		nw.dispatch(ClassMaint, widx)
	}
}

// considerCandidate handles indirect evidence about x (a third party
// listed it in a repair or maintenance response). Unlike direct receipt of
// a message from x, hearsay may be stale — MSPastry probes candidates
// before adopting them, which is what prevents evicted-dead nodes from
// oscillating back into leaf sets via repair responses.
func (nw *Network) considerCandidate(i, x int) {
	if i == x || x < 0 || !nw.wouldUse(i, x) {
		return
	}
	nw.probe(i, x, actionConsiderAlive, actionNone)
}

// wouldUse reports whether adopting x would improve node i's state: a
// leaf-set slot (either side not full, or x closer than a current
// extreme) or an empty routing-table cell.
func (nw *Network) wouldUse(i, x int) bool {
	nd := nw.nodes[i]
	if nd.inLeafset(x) {
		return false
	}
	half := nw.params.LeafSize / 2
	xw := nw.nodes[x].w
	if len(nd.right) < half {
		return true
	}
	if xw.Sub(nd.w).Cmp(nw.nodes[nd.right[len(nd.right)-1]].w.Sub(nd.w)) < 0 {
		return true
	}
	if len(nd.left) < half {
		return true
	}
	if nd.w.Sub(xw).Cmp(nd.w.Sub(nw.nodes[nd.left[len(nd.left)-1]].w)) < 0 {
		return true
	}
	row, col, ok := nw.rtCell(nd, x)
	return ok && nd.rt[row][col] == -1
}

// considerAlive folds fresh liveness evidence about x into node i's
// tables: x joins the leaf set if it ranks within the half-size on either
// side, and fills its routing-table cell if empty. This is also how nodes
// returning from an outage re-enter their neighbors' state — their own
// probes advertise them.
func (nw *Network) considerAlive(i, x int) {
	if i == x || x < 0 {
		return
	}
	nd := nw.nodes[i]
	half := nw.params.LeafSize / 2
	xw := nw.nodes[x].w

	if !nd.inLeafset(x) {
		// Right side: ordered by clockwise distance from nd.id.
		cw := xw.Sub(nd.w)
		pos := len(nd.right)
		for k, v := range nd.right {
			if cw.Cmp(nw.nodes[v].w.Sub(nd.w)) < 0 {
				pos = k
				break
			}
		}
		if pos < half {
			nd.right = append(nd.right, 0)
			copy(nd.right[pos+1:], nd.right[pos:])
			nd.right[pos] = x
			if len(nd.right) > half {
				nd.right = nd.right[:half]
			}
		}
		// Left side: ordered by counter-clockwise distance.
		if !nd.inLeafset(x) {
			ccw := nd.w.Sub(xw)
			pos = len(nd.left)
			for k, v := range nd.left {
				if ccw.Cmp(nd.w.Sub(nw.nodes[v].w)) < 0 {
					pos = k
					break
				}
			}
			if pos < half {
				nd.left = append(nd.left, 0)
				copy(nd.left[pos+1:], nd.left[pos:])
				nd.left[pos] = x
				if len(nd.left) > half {
					nd.left = nd.left[:half]
				}
			}
		}
	}

	if row, col, ok := nw.rtCell(nd, x); ok && nd.rt[row][col] == -1 {
		nd.rt[row][col] = x
	}
}

// rtCell names the one routing-table cell of nd that node x can occupy:
// the row is the length of their shared digit prefix and the column is
// x's digit at that position. Every writer places x only there, which is
// what lets evict clear a departed node with a single cell check. ok is
// false when x carries nd's own ID, which has no cell.
func (nw *Network) rtCell(nd *node, x int) (row, col int, ok bool) {
	xn := nw.nodes[x]
	row = nw.space.SharedPrefixWords(nd.w, xn.w)
	if row >= len(nd.rt) {
		return 0, 0, false
	}
	return row, nw.space.Digit(xn.id, row), true
}
