package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildCoverOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},   // overlaps span 2: 10..60 covered once
		{ID: 4, Parent: 1, Start: 90, End: 130},  // reaches past the parent: clipped to 90..100
		{ID: 5, Parent: 2, Start: 15, End: 20},   // grandchild: shortens span 2, not span 1
		{ID: 6, Parent: 0, Start: 200, End: 250}, // another root
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 40, 5: 5, 6: 50}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

// TestJoinNestsNodeSpansAndBudgets feeds the store what three nodes
// would report for one stamped write and checks the tree, the coverage
// and the client overhead.
func TestJoinNestsNodeSpansAndBudgets(t *testing.T) {
	const id = uint64(0xabc)
	start := time.Unix(3000, 0)
	ns := func(us int64) int64 { return start.UnixNano() + us*1000 }
	ts := newTraceStore(nil)
	ts.byID["0000000000000abc"] = map[nodeSpan]struct{}{
		{"dispatch", 0, ns(100), ns(110), 0}:       {},
		{"queue_wait", 0, ns(110), ns(150), 0}:     {},
		{"peer_call", 0, ns(105), ns(700), 1}:      {}, // to node 1
		{"peer_call", 0, ns(106), ns(800), 2}:      {}, // to node 2: slower, the quorum did not wait for it
		{"replicate_exec", 1, ns(200), ns(600), 0}: {}, // inside wal_commit's interval too, but caused by the call
		{"wal_commit", 0, ns(150), ns(650), 0}:     {},
		{"shard_exec", 0, ns(650), ns(680), 0}:     {},
		{"resp_flush", 0, ns(700), ns(1200), 0}:    {}, // closes after the client has the reply
	}
	rec := &recorder{}
	// Client: sent at 0, reply at 900 µs; intended send was 50 µs earlier.
	samples := []sample{
		{kind: opInsert, ok: true, start: start, latUs: 950, lateUs: 50, trace: id},
		{kind: opLookup, ok: true, start: start, latUs: 100, trace: 0},     // not stamped
		{kind: opLookup, ok: true, start: start, latUs: 100, trace: 0xdef}, // stamped, nothing reported
	}
	b := ts.join(rec, samples)
	if b.joined != 1 {
		t.Fatalf("joined %d traces, want 1", b.joined)
	}
	byName := map[string]span{}
	for _, s := range rec.spans {
		byName[s.Name] = s
	}
	root := byName["cluster.insert"]
	if root.Parent != 0 || root.End-root.Start != 900_000 {
		t.Errorf("client span %+v, want a 900 µs root", root)
	}
	var callTo1 span
	for _, s := range rec.spans {
		if s.Name == "p2p.peer_call" && s.End-s.Start == 595_000 {
			callTo1 = s
		}
	}
	if got := byName["p2p.replicate_exec"]; got.Parent != callTo1.ID || callTo1.ID == 0 || got.Node != 1 {
		t.Errorf("replicate_exec %+v must hang off the coordinator's peer_call to node 1 (%+v)", got, callTo1)
	}
	if got := byName["wal.commit_share"]; got.Parent != root.ID {
		t.Errorf("wal_commit %+v is the coordinator's own work: parent must be the client span", got)
	}
	if got := byName["server.dispatch"]; got.Parent != root.ID {
		t.Errorf("dispatch %+v must hang off the client span", got)
	}
	// Pre-reply spans cover 100..700 of the 0..900 client interval: the
	// call to node 2 is clipped where the reply left.
	if b.coveredNs != 600_000 || b.clientNs != 900_000 {
		t.Errorf("coverage %d of %d ns, want 600000 of 900000", b.coveredNs, b.clientNs)
	}
	// Residence is 100..700: overhead 300 µs.
	if len(b.overheadUs) != 1 || b.overheadUs[0] != 300 {
		t.Errorf("client overhead %v µs, want [300]", b.overheadUs)
	}
	if got := b.pct("wal.commit_share", 50); got != 500 {
		t.Errorf("wal.commit_share p50 = %v µs, want 500", got)
	}
	// The client span's self time is what no node span accounts for.
	if self := selfTimes(rec.spans)[root.ID]; self != 100_000 {
		t.Errorf("client self time %d ns, want 100000 (0..100 µs before dispatch; resp_flush covers the rest)", self)
	}
}
