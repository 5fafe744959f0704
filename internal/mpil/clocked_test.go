package mpil

import (
	"math/rand"
	"testing"
	"time"

	"discovery/internal/eventsim"
	"discovery/internal/idspace"
	"discovery/internal/overlay"
	"discovery/internal/perturb"
	"discovery/internal/topology"
)

func newClockedFixture(t *testing.T, seed int64, avail overlay.Availability) (*Clocked, *eventsim.Sim, *overlay.Network) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, err := topology.RandomRegular(200, 16, rng)
	if err != nil {
		t.Fatal(err)
	}
	nw := overlay.New(g, rng, avail)
	e, err := NewEngine(nw, DefaultConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	sim := eventsim.New(seed)
	return NewClocked(e, sim, ConstantLatency(5*time.Millisecond)), sim, nw
}

func TestClockedInsertLookupAlwaysOn(t *testing.T) {
	c, sim, nw := newClockedFixture(t, 21, nil)
	rng := rand.New(rand.NewSource(22))
	key := idspace.Random(rng)

	var ins InsertStats
	c.InsertAsync(3, key, []byte("v"), func(st InsertStats) { ins = st })
	sim.Run()
	if ins.Replicas == 0 {
		t.Fatal("clocked insert stored nothing")
	}
	if ins.Replicas != len(c.Engine().HoldersOf(key)) {
		t.Errorf("stats replicas %d != store count %d", ins.Replicas, len(c.Engine().HoldersOf(key)))
	}

	var lk LookupStats
	done := false
	c.LookupAsync(nw.N()-1, key, func(st LookupStats) { lk = st; done = true })
	sim.Run()
	if !done {
		t.Fatal("lookup completion callback never fired")
	}
	if !lk.Found {
		t.Error("clocked lookup failed on an always-on overlay")
	}
	if lk.FirstReplyHops < 0 {
		t.Error("found lookup reported negative hops")
	}
}

func TestClockedTakesVirtualTime(t *testing.T) {
	c, sim, _ := newClockedFixture(t, 23, nil)
	key := idspace.FromString("timed-object")
	var doneAt time.Duration
	c.InsertAsync(0, key, nil, func(InsertStats) { doneAt = sim.Now() })
	sim.Run()
	if doneAt < 5*time.Millisecond {
		t.Errorf("multi-hop insert completed at %v, want at least one hop latency", doneAt)
	}
}

func TestClockedLookupUnderTotalOutage(t *testing.T) {
	// Insert while online, then every node except the origin goes dark:
	// lookups must fail but still terminate and report drops.
	dark := false
	av := availFunc(func(node int, _ time.Duration) bool { return !dark || node == 0 })
	c, sim, _ := newClockedFixture(t, 25, av)
	key := idspace.FromString("dark-object")
	c.InsertAsync(0, key, nil, nil)
	sim.Run()
	dark = true

	var lk LookupStats
	c.LookupAsync(0, key, func(st LookupStats) { lk = st })
	sim.Run()
	if lk.Found {
		t.Error("lookup succeeded with all other nodes offline")
	}
	if lk.Dropped == 0 {
		t.Error("no drops recorded despite total outage")
	}
}

func TestClockedMatchesStaticOutcome(t *testing.T) {
	// The clocked runner with constant latency delivers in BFS order, so
	// key outcomes (replica set) must match the synchronous runner given
	// identical RNG state.
	rng1 := rand.New(rand.NewSource(30))
	g, err := topology.RandomRegular(150, 10, rng1)
	if err != nil {
		t.Fatal(err)
	}
	key := idspace.FromString("equivalence")

	mk := func(seed int64) (*Engine, *overlay.Network) {
		rng := rand.New(rand.NewSource(seed))
		nw := overlay.New(g, rng, nil)
		e, err := NewEngine(nw, DefaultConfig(), rng)
		if err != nil {
			t.Fatal(err)
		}
		return e, nw
	}

	eStatic, _ := mk(31)
	stStatic := eStatic.Insert(5, key, nil, 0)

	eClocked, _ := mk(31)
	sim := eventsim.New(1)
	c := NewClocked(eClocked, sim, ConstantLatency(time.Millisecond))
	var stClocked InsertStats
	c.InsertAsync(5, key, nil, func(st InsertStats) { stClocked = st })
	sim.Run()

	if stStatic.Replicas != stClocked.Replicas {
		t.Errorf("replica counts differ: static %d, clocked %d", stStatic.Replicas, stClocked.Replicas)
	}
	hs, hc := eStatic.HoldersOf(key), eClocked.HoldersOf(key)
	if len(hs) != len(hc) {
		t.Fatalf("holder sets differ: %v vs %v", hs, hc)
	}
	for i := range hs {
		if hs[i] != hc[i] {
			t.Fatalf("holder sets differ: %v vs %v", hs, hc)
		}
	}
}

// runFlappingLookups reproduces the paper's Section 6.2 methodology at
// unit-test scale: inserts and lookups issued by one origin node, inserts
// on the static overlay, lookups under a flapping schedule (prob may be 0
// for the static baseline). It returns the success fraction.
func runFlappingLookups(t *testing.T, prob float64) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(40))
	const n = 300
	g, err := topology.RandomRegular(n, 16, rng)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := perturb.New(n, 30*time.Second, 30*time.Second, prob, rng)
	if err != nil {
		t.Fatal(err)
	}
	nw := overlay.New(g, rng, nil) // static for insertion phase
	e, err := NewEngine(nw, DefaultConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	const origin = 0
	keys := make([]idspace.ID, 40)
	for i := range keys {
		keys[i] = idspace.Random(rng)
		e.Insert(origin, keys[i], nil, 0)
	}
	// Swap in the flapping availability for the lookup phase.
	nwFlap, err := overlay.NewWithIDs(g, idsOfNetwork(nw), fl)
	if err != nil {
		t.Fatal(err)
	}
	e.ov = nwFlap

	sim := eventsim.New(41)
	c := NewClocked(e, sim, ConstantLatency(10*time.Millisecond))
	sim.RunUntil(fl.StartTime())
	found := 0
	for i, key := range keys {
		key := key
		// One lookup per flapping cycle, as in the paper, issued when
		// the origin itself is online.
		at := fl.StartTime() + time.Duration(i)*fl.Cycle()
		var attempt func()
		attempt = func() {
			if !nwFlap.Online(origin, sim.Now()) {
				// Origin perturbed right now; retry once it returns.
				sim.After(time.Second, attempt)
				return
			}
			c.LookupAsync(origin, key, func(st LookupStats) {
				if st.Found {
					found++
				}
			})
		}
		sim.At(at, attempt)
	}
	sim.Run()
	return float64(found) / float64(len(keys))
}

func TestClockedLookupUnderFlapping(t *testing.T) {
	static := runFlappingLookups(t, 0)
	if static < 0.95 {
		t.Fatalf("static baseline success %.2f, want >= 0.95", static)
	}
	flapped := runFlappingLookups(t, 0.5)
	if flapped < 0.55 {
		t.Errorf("success %.2f under 0.5 flapping, want >= 0.55 (paper: MPIL degrades gracefully)", flapped)
	}
}

func TestHeartbeats(t *testing.T) {
	c, sim, _ := newClockedFixture(t, 50, nil)
	key := idspace.FromString("heartbeat-object")
	c.InsertAsync(2, key, nil, nil)
	sim.Run()
	holders := c.Engine().HoldersOf(key)
	if len(holders) == 0 {
		t.Fatal("no replicas to heartbeat")
	}

	beats := map[int]int{}
	timers := c.StartHeartbeats(key, 10*time.Second, func(holder int, delivered bool) {
		if !delivered {
			t.Errorf("heartbeat from %d dropped on an always-on overlay", holder)
		}
		beats[holder]++
	})
	sim.RunFor(35 * time.Second)
	for _, h := range holders {
		if beats[h] != 3 {
			t.Errorf("holder %d sent %d heartbeats in 35s at 10s period, want 3", h, beats[h])
		}
	}
	for _, tm := range timers {
		tm.Cancel()
	}
	before := len(beats)
	_ = before
	count := beats[holders[0]]
	sim.RunFor(30 * time.Second)
	if beats[holders[0]] != count {
		t.Error("heartbeats continued after cancellation")
	}
}

func TestHeartbeatStopsAfterDelete(t *testing.T) {
	c, sim, _ := newClockedFixture(t, 51, nil)
	key := idspace.FromString("deleted-object")
	c.InsertAsync(4, key, nil, nil)
	sim.Run()
	var fired int
	c.StartHeartbeats(key, 5*time.Second, func(int, bool) { fired++ })
	sim.RunFor(6 * time.Second)
	if fired == 0 {
		t.Fatal("no heartbeat before deletion")
	}
	c.Engine().Delete(4, key, sim.Now())
	base := fired
	sim.RunFor(20 * time.Second)
	if fired != base {
		t.Errorf("heartbeats fired %d times after deletion, want 0", fired-base)
	}
}

func TestDeletionReconciliationViaHeartbeats(t *testing.T) {
	// A holder is offline when the owner deletes; its stale replica must
	// be reconciled once its heartbeats resume (Section 4.4 end-to-end).
	var darkHolder = -1
	av := availFunc(func(node int, at time.Duration) bool {
		if node != darkHolder {
			return true
		}
		// Offline between t=30s and t=90s.
		return at < 30*time.Second || at > 90*time.Second
	})
	rng := rand.New(rand.NewSource(60))
	g, err := topology.RandomRegular(200, 16, rng)
	if err != nil {
		t.Fatal(err)
	}
	nw := overlay.New(g, rng, av)
	e, err := NewEngine(nw, DefaultConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	sim := eventsim.New(60)
	c := NewClocked(e, sim, ConstantLatency(5*time.Millisecond))

	key := idspace.FromString("reconciled-object")
	const owner = 2
	c.InsertAsync(owner, key, nil, nil)
	sim.Run()
	holders := c.Engine().HoldersOf(key)
	if len(holders) < 2 {
		t.Skip("need at least two replicas for this scenario")
	}
	darkHolder = holders[0]
	if darkHolder == owner {
		darkHolder = holders[1]
	}
	c.StartHeartbeats(key, 10*time.Second, nil)

	// Owner deletes at t=60s, while darkHolder is offline.
	sim.RunUntil(60 * time.Second)
	removed := e.Delete(owner, key, sim.Now())
	c.MarkDeleted(owner, key)
	if removed == 0 {
		t.Fatal("online replicas not deleted")
	}
	if _, stale := e.Stored(darkHolder, key); !stale {
		t.Fatal("scenario broken: dark holder lost its replica while offline")
	}

	// After the holder returns (t>90s) and heartbeats resume, the stale
	// replica must disappear.
	sim.RunUntil(3 * time.Minute)
	if _, stillThere := e.Stored(darkHolder, key); stillThere {
		t.Error("stale replica never reconciled after the holder returned")
	}
}

func TestTransportRetransmissionRecoversBriefOutage(t *testing.T) {
	// A next hop offline for 4s: fire-and-forget loses the message, a
	// 3-attempt transport with 3s spacing recovers it.
	outageEnd := 4 * time.Second
	var target = -1
	av := availFunc(func(node int, at time.Duration) bool {
		return node != target || at >= outageEnd
	})
	build := func(tr Transport) (LookupStats, *Engine) {
		rng := rand.New(rand.NewSource(61))
		g, err := topology.RandomRegular(150, 10, rng)
		if err != nil {
			t.Fatal(err)
		}
		nw := overlay.New(g, rng, av)
		e, err := NewEngine(nw, DefaultConfig(), rng)
		if err != nil {
			t.Fatal(err)
		}
		sim := eventsim.New(61)
		c := NewClocked(e, sim, ConstantLatency(time.Millisecond))
		key := idspace.FromString("transport-object")
		target = -1
		c.InsertAsync(0, key, nil, nil)
		sim.Run()
		// Knock out the origin's best next hop for the first 4s.
		m := e.newMessage(KindLookup, 0, key, nil)
		r := e.step(0, m)
		if len(r.forwards) == 0 {
			t.Skip("origin is itself the destination; reseed")
		}
		target = r.forwards[0].to

		c.SetTransport(tr)
		var st LookupStats
		c.LookupAsync(0, key, func(s LookupStats) { st = s })
		sim.Run()
		return st, e
	}
	single, _ := build(FireAndForget())
	retry, _ := build(Transport{Attempts: 3, Spacing: 3 * time.Second})
	if single.Dropped == 0 {
		t.Error("fire-and-forget lost nothing despite the outage")
	}
	if !retry.Found {
		t.Error("retransmitting transport failed to recover the lookup")
	}
}

func idsOfNetwork(nw *overlay.Network) []idspace.ID {
	ids := make([]idspace.ID, nw.N())
	for i := range ids {
		ids[i] = nw.ID(i)
	}
	return ids
}

// TestClockedConcurrentRequests runs three lookups and an insertion
// through one engine at once, with duplicate suppression on, a retrying
// transport and flapping availability: copies of different requests meet
// at the same nodes, and retries deliver copies late, after other
// requests' copies. Each request's counts are pinned, so duplicate
// accounting that leaked between requests in flight would move them.
func TestClockedConcurrentRequests(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const n = 200
	g, err := topology.RandomRegular(n, 16, rng)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := perturb.New(n, 2*time.Second, 2*time.Second, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	nw := overlay.New(g, rng, fl)
	cfg := DefaultConfig()
	cfg.DuplicateSuppression = true
	cfg.MaxFlows = 20
	e, err := NewEngine(nw, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	shared := idspace.FromString("shared-object")
	e.Insert(5, shared, nil, 0)

	sim := eventsim.New(71)
	c := NewClocked(e, sim, ConstantLatency(50*time.Millisecond))
	c.SetTransport(Transport{Attempts: 3, Spacing: 500 * time.Millisecond})
	sim.RunUntil(fl.StartTime() + 3*time.Second)

	// Origins online at the start instant, so every request routes.
	var origins []int
	for i := 0; len(origins) < 4; i++ {
		if nw.Online(i, sim.Now()) {
			origins = append(origins, i)
		}
	}
	fresh := idspace.FromString("fresh-object")
	var lk [3]LookupStats
	var ins InsertStats
	c.LookupAsync(origins[0], shared, func(st LookupStats) { lk[0] = st })
	c.InsertAsync(origins[1], fresh, nil, func(st InsertStats) { ins = st })
	c.LookupAsync(origins[2], shared, func(st LookupStats) { lk[1] = st })
	c.LookupAsync(origins[3], fresh, func(st LookupStats) { lk[2] = st })
	sim.Run()

	wantIns := InsertStats{Replicas: 16, Messages: 44, Duplicates: 9, Flows: 13, Dropped: 2}
	if ins != wantIns {
		t.Errorf("insert = %+v, want %+v", ins, wantIns)
	}
	wantLk := [3]LookupStats{
		{Found: true, FirstReplyHops: 3, Replies: 2, Messages: 58, Duplicates: 4, Flows: 11, Dropped: 5},
		{Found: true, FirstReplyHops: 7, Replies: 2, Messages: 40, Duplicates: 2, Flows: 8, Dropped: 4},
		{Found: true, FirstReplyHops: 2, Replies: 4, Messages: 29, Duplicates: 2, Flows: 9, Dropped: 1},
	}
	for i := range lk {
		if lk[i] != wantLk[i] {
			t.Errorf("lookup %d = %+v, want %+v", i, lk[i], wantLk[i])
		}
	}
}
