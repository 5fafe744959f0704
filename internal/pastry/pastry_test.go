package pastry

import (
	"math/rand"
	"testing"
	"time"

	"discovery/internal/eventsim"
	"discovery/internal/idspace"
	"discovery/internal/overlay"
	"discovery/internal/perturb"
)

func newTestNetwork(t *testing.T, n int, seed int64, av overlay.Availability) (*Network, *eventsim.Sim) {
	t.Helper()
	sim := eventsim.New(seed)
	nw, err := New(n, DefaultParams(), sim, rand.New(rand.NewSource(seed)), nil, av)
	if err != nil {
		t.Fatal(err)
	}
	return nw, sim
}

func TestNewValidation(t *testing.T) {
	sim := eventsim.New(1)
	rng := rand.New(rand.NewSource(1))
	if _, err := New(1, DefaultParams(), sim, rng, nil, nil); err == nil {
		t.Error("single-node network accepted")
	}
	bad := DefaultParams()
	bad.LeafSize = 7
	if _, err := New(10, bad, sim, rng, nil, nil); err == nil {
		t.Error("odd leaf size accepted")
	}
	bad = DefaultParams()
	bad.B = 3
	if _, err := New(10, bad, sim, rng, nil, nil); err == nil {
		t.Error("b=3 accepted")
	}
	bad = DefaultParams()
	bad.RetryInterval = time.Minute // exceeds LookupTimeout
	if _, err := New(10, bad, sim, rng, nil, nil); err == nil {
		t.Error("retry interval above lookup timeout accepted")
	}
}

func TestPerfectLeafsets(t *testing.T) {
	nw, _ := newTestNetwork(t, 64, 2, nil)
	half := nw.params.LeafSize / 2
	// Brute-force ground truth for each node.
	for i, nd := range nw.nodes {
		if len(nd.left) != half || len(nd.right) != half {
			t.Fatalf("node %d leafset sides %d/%d, want %d/%d", i, len(nd.left), len(nd.right), half, half)
		}
		// Right side must be the `half` nodes with smallest clockwise
		// distance, in increasing order.
		prev := idspace.Zero
		for k, v := range nd.right {
			d := nw.nodes[v].id.Sub(nd.id)
			if k > 0 && d.Cmp(prev) <= 0 {
				t.Errorf("node %d right side not strictly increasing at %d", i, k)
			}
			prev = d
		}
		// No non-member may be closer clockwise than the farthest right
		// member.
		far := nw.nodes[nd.right[half-1]].id.Sub(nd.id)
		for j := range nw.nodes {
			if j == i || nd.inLeafset(j) {
				continue
			}
			if nw.nodes[j].id.Sub(nd.id).Cmp(far) < 0 {
				t.Errorf("node %d: non-member %d is clockwise-closer than farthest right member", i, j)
			}
		}
	}
}

// TestPerfectRoutingTableInvariant pins the placement rule evict relies
// on to clear a node with a single cell check: rt[r][c] holds only a node
// sharing exactly r digits with the owner and having digit c at row r.
// It holds in the perfect state, and after maintenance under heavy
// flapping has evicted, readmitted and merged rows into the tables.
func TestPerfectRoutingTableInvariant(t *testing.T) {
	cases := []struct {
		name  string
		churn bool
	}{
		{"perfect", false},
		{"maintained-30:30-p1.0", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nw, sim := newTestNetwork(t, 100, 3, nil)
			if tc.churn {
				before := rtCopy(nw)
				fl, err := perturb.New(nw.N(), 30*time.Second, 30*time.Second, 1.0, rand.New(rand.NewSource(3)))
				if err != nil {
					t.Fatal(err)
				}
				nw.SetAvailability(fl)
				nw.StartMaintenance()
				sim.RunUntil(20 * time.Minute)
				nw.StopMaintenance()
				if changed := rtChanged(before, rtCopy(nw)); changed == 0 {
					t.Fatal("20 min of maintenance under flapping changed no routing-table cell")
				}
			}
			for i, nd := range nw.nodes {
				for r, row := range nd.rt {
					for c, v := range row {
						if v == -1 {
							continue
						}
						vid := nw.nodes[v].id
						if got := nw.space.SharedPrefix(nd.id, vid); got != r {
							t.Errorf("node %d rt[%d][%d]=%d shares %d digits, want exactly %d", i, r, c, v, got, r)
						}
						if got := nw.space.Digit(vid, r); got != c {
							t.Errorf("node %d rt[%d][%d]=%d has digit %d at row, want %d", i, r, c, v, got, c)
						}
					}
				}
			}
		})
	}
}

// rtCopy snapshots every node's routing table.
func rtCopy(nw *Network) [][][]int {
	out := make([][][]int, len(nw.nodes))
	for i, nd := range nw.nodes {
		out[i] = make([][]int, len(nd.rt))
		for r, row := range nd.rt {
			out[i][r] = append([]int(nil), row...)
		}
	}
	return out
}

// rtChanged counts the cells that differ between two snapshots.
func rtChanged(a, b [][][]int) int {
	n := 0
	for i := range a {
		for r := range a[i] {
			for c := range a[i][r] {
				if a[i][r][c] != b[i][r][c] {
					n++
				}
			}
		}
	}
	return n
}

func TestRouteProbeDeliversToTrueRoot(t *testing.T) {
	nw, _ := newTestNetwork(t, 200, 4, nil)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		key := idspace.Random(rng)
		origin := rng.Intn(nw.N())
		at, hops := nw.RouteProbe(origin, key)
		if want := nw.TrueRoot(key); at != want {
			t.Fatalf("trial %d: delivered to %d, true root %d", trial, at, want)
		}
		if hops > 6 {
			t.Errorf("trial %d: %d hops for 200 nodes, want O(log n)", trial, hops)
		}
	}
}

func TestRouteProbeHopsLogarithmic(t *testing.T) {
	nw, _ := newTestNetwork(t, 500, 6, nil)
	rng := rand.New(rand.NewSource(7))
	total := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		_, hops := nw.RouteProbe(rng.Intn(nw.N()), idspace.Random(rng))
		total += hops
	}
	avg := float64(total) / trials
	// log_16(500) ~ 2.24; the paper reports 2-3 hops for 1000 nodes.
	if avg < 1 || avg > 4 {
		t.Errorf("average hops %.2f, want in [1,4]", avg)
	}
}

func TestInsertThenLookupStatic(t *testing.T) {
	nw, sim := newTestNetwork(t, 150, 8, nil)
	rng := rand.New(rand.NewSource(9))
	keys := make([]idspace.ID, 50)
	okCount := 0
	for i := range keys {
		keys[i] = idspace.Random(rng)
		nw.Insert(rng.Intn(nw.N()), keys[i], []byte("v"), func(ok bool, _ int) {
			if ok {
				okCount++
			}
		})
	}
	sim.Run()
	if okCount != len(keys) {
		t.Fatalf("static inserts acked: %d/%d", okCount, len(keys))
	}
	for i, key := range keys {
		root := nw.TrueRoot(key)
		if !nw.Stored(root, key) {
			t.Errorf("key %d not stored at true root %d", i, root)
		}
		if h := nw.HoldersOf(key); len(h) != 1 {
			t.Errorf("key %d stored at %d nodes, want 1 (no RR)", i, len(h))
		}
	}
	found := 0
	for _, key := range keys {
		nw.Lookup(rng.Intn(nw.N()), key, func(ok bool, hops int) {
			if ok {
				found++
				if hops < 0 {
					t.Error("successful lookup with negative hops")
				}
			}
		})
	}
	sim.Run()
	if found != len(keys) {
		t.Errorf("static lookups: %d/%d found", found, len(keys))
	}
}

func TestLookupMissingKeyTimesOut(t *testing.T) {
	nw, sim := newTestNetwork(t, 60, 10, nil)
	var done, found bool
	start := sim.Now()
	nw.Lookup(0, idspace.FromString("missing"), func(ok bool, _ int) {
		done = true
		found = ok
	})
	sim.Run()
	if !done {
		t.Fatal("lookup never completed")
	}
	if found {
		t.Error("missing key reported found")
	}
	if elapsed := sim.Now() - start; elapsed < DefaultParams().LookupTimeout {
		t.Errorf("failure declared after %v, want a full timeout %v", elapsed, DefaultParams().LookupTimeout)
	}
}

func TestReplicationOnRoute(t *testing.T) {
	sim := eventsim.New(11)
	params := DefaultParams()
	params.ReplicationOnRoute = true
	nw, err := New(150, params, sim, rand.New(rand.NewSource(11)), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	key := idspace.Random(rng)
	// Use an origin that is not the root so the route has length > 0.
	origin := (nw.TrueRoot(key) + 1) % nw.N()
	nw.Insert(origin, key, []byte("v"), nil)
	sim.Run()
	holders := nw.HoldersOf(key)
	if len(holders) < 2 {
		t.Errorf("RR stored at %d nodes, want >= 2 (origin plus route plus root)", len(holders))
	}
	if !nw.Stored(nw.TrueRoot(key), key) {
		t.Error("RR did not store at the root")
	}
}

func TestLookupTrafficCounted(t *testing.T) {
	nw, sim := newTestNetwork(t, 100, 13, nil)
	before := nw.Counters()
	nw.Insert(0, idspace.FromString("traffic"), nil, nil)
	sim.Run()
	nw.Lookup(7, idspace.FromString("traffic"), nil)
	sim.Run()
	after := nw.Counters()
	if after.Data <= before.Data {
		t.Error("no data traffic recorded")
	}
	if after.Reply <= before.Reply {
		t.Error("no reply traffic recorded")
	}
	if after.Probe != before.Probe {
		t.Error("probe traffic without maintenance running")
	}
}

func TestMaintenanceGeneratesBackgroundTraffic(t *testing.T) {
	nw, sim := newTestNetwork(t, 50, 14, nil)
	nw.StartMaintenance()
	if !nw.MaintenanceRunning() {
		t.Fatal("maintenance not running after start")
	}
	sim.RunUntil(5 * time.Minute)
	c := nw.Counters()
	if c.Probe == 0 || c.ProbeReply == 0 {
		t.Errorf("no probing traffic after 5 minutes: %+v", c)
	}
	// On an always-on overlay probes all succeed, so replies track
	// probes closely.
	if c.ProbeReply < c.Probe*9/10 {
		t.Errorf("probe replies %d lag probes %d on an always-on overlay", c.ProbeReply, c.Probe)
	}
	nw.StopMaintenance()
	if nw.MaintenanceRunning() {
		t.Error("maintenance still running after stop")
	}
	probes := nw.Counters().Probe
	sim.RunFor(5 * time.Minute)
	if nw.Counters().Probe != probes {
		t.Error("probing continued after StopMaintenance")
	}
}

func TestEvictionOnDeadNode(t *testing.T) {
	// One node goes permanently dark; with maintenance running, every
	// other node should eventually evict it from its leafset.
	const victim = 5
	av := availFunc(func(node int, at time.Duration) bool {
		return node != victim || at < 10*time.Second
	})
	nw, sim := newTestNetwork(t, 40, 15, av)
	nw.StartMaintenance()
	// Round-robin probing of a leafset of 8 at one probe per 30s needs
	// several cycles to reach the victim.
	sim.RunUntil(20 * time.Minute)
	for i, nd := range nw.nodes {
		if i == victim {
			continue
		}
		if nd.inLeafset(victim) {
			t.Errorf("node %d still has dead node %d in its leafset after 20 min", i, victim)
		}
	}
	// Eviction clears only the one cell the victim can occupy; a full
	// scan confirms no other cell still points at it.
	for i, nd := range nw.nodes {
		if i == victim {
			continue
		}
		for r, row := range nd.rt {
			for c, v := range row {
				if v == victim {
					t.Errorf("node %d still has dead node %d at rt[%d][%d] after 20 min", i, victim, r, c)
				}
			}
		}
	}
	// Leafsets must have been repaired back to full size.
	half := nw.params.LeafSize / 2
	for i, nd := range nw.nodes {
		if i == victim {
			continue
		}
		if len(nd.left) < half || len(nd.right) < half {
			t.Errorf("node %d leafset not repaired: %d/%d", i, len(nd.left), len(nd.right))
		}
	}
}

func TestReturningNodeIsReadmitted(t *testing.T) {
	// A node offline for 5 minutes then back: neighbors evict it and
	// later re-admit it once it resumes probing.
	const victim = 3
	av := availFunc(func(node int, at time.Duration) bool {
		if node != victim {
			return true
		}
		return at < 2*time.Minute || at > 7*time.Minute
	})
	nw, sim := newTestNetwork(t, 30, 16, av)
	nw.StartMaintenance()
	sim.RunUntil(6 * time.Minute) // victim offline and mostly evicted
	evicted := 0
	for i, nd := range nw.nodes {
		if i != victim && !nd.inLeafset(victim) {
			evicted++
		}
	}
	if evicted == 0 {
		t.Fatal("no one evicted the dead node after 4 minutes")
	}
	sim.RunUntil(30 * time.Minute) // victim back and re-announcing
	// The victim's ring neighbors should know it again.
	readmitted := 0
	for i, nd := range nw.nodes {
		if i != victim && nd.inLeafset(victim) {
			readmitted++
		}
	}
	if readmitted == 0 {
		t.Error("returning node never re-admitted to any leafset")
	}
}

func TestLookupUnderFlappingDegrades(t *testing.T) {
	// Sanity shape check at test scale: success under heavy long-cycle
	// flapping must be well below the static baseline.
	run := func(prob float64) float64 {
		sim := eventsim.New(17)
		rng := rand.New(rand.NewSource(17))
		nw, err := New(120, DefaultParams(), sim, rng, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]idspace.ID, 40)
		for i := range keys {
			keys[i] = idspace.Random(rng)
			nw.Insert(rng.Intn(nw.N()), keys[i], nil, nil)
		}
		sim.Run()
		fl, err := perturb.New(nw.N(), 300*time.Second, 300*time.Second, prob, rng)
		if err != nil {
			t.Fatal(err)
		}
		if prob > 0 {
			nw.SetAvailability(fl)
		}
		nw.StartMaintenance()
		found := 0
		var last time.Duration
		for i, key := range keys {
			key := key
			at := fl.StartTime() + time.Duration(i)*fl.Cycle()/4
			last = at
			sim.At(at, func() {
				if !nw.Online(0) {
					return
				}
				nw.Lookup(0, key, func(ok bool, _ int) {
					if ok {
						found++
					}
				})
			})
		}
		// Maintenance timers re-arm forever, so run to a deadline
		// rather than queue exhaustion.
		sim.RunUntil(last + 2*DefaultParams().LookupTimeout)
		nw.StopMaintenance()
		return float64(found) / float64(len(keys))
	}
	static := run(0)
	if static < 0.95 {
		t.Fatalf("static success %.2f, want >= 0.95", static)
	}
	heavy := run(0.9)
	if heavy > static-0.2 {
		t.Errorf("success %.2f under 0.9/300:300 flapping vs static %.2f: expected a clear drop", heavy, static)
	}
}

type availFunc func(int, time.Duration) bool

func (f availFunc) Online(node int, at time.Duration) bool { return f(node, at) }
