package p2p_test

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	discovery "discovery"
	"discovery/internal/p2p"
	"discovery/internal/server"
	"discovery/internal/testnet"
	"discovery/internal/wire"
)

// testNode is one in-process cluster member: runtime, serving layer, and
// a client address.
type testNode struct {
	cluster    *p2p.Cluster
	pool       *discovery.Pool
	node       *p2p.Node
	srv        *server.Server
	clientAddr string
}

// startTestNode brings up the member advertised as selfAddr. When
// regioned is false the pool accepts any key, which lets a test seed a
// peer with entries of another member's region for repair to pull.
func startTestNode(t testing.TB, selfAddr string, peerAddrs []string, regioned bool) *testNode {
	t.Helper()
	return startReplicatedNode(t, selfAddr, peerAddrs, regioned, 1)
}

// startReplicatedNode is startTestNode for a cluster whose keys live on
// repl regions; its server coordinates quorum writes when the quorum
// needs more than itself.
func startReplicatedNode(t testing.TB, selfAddr string, peerAddrs []string, regioned bool, repl int) *testNode {
	t.Helper()
	cluster, err := p2p.NewCluster(selfAddr, peerAddrs, repl)
	if err != nil {
		t.Fatal(err)
	}
	ov, err := p2p.NewRemoteOverlay(cluster)
	if err != nil {
		t.Fatal(err)
	}
	var opts []discovery.Option
	if regioned {
		opts = append(opts, discovery.WithRegion(cluster.Self(), cluster.N()), discovery.WithReplication(cluster.R()))
	}
	pool, err := discovery.NewPool(ov, 2, opts...)
	if err != nil {
		t.Fatal(err)
	}
	node, err := p2p.NewNode(p2p.Config{
		Cluster:     cluster,
		Overlay:     ov,
		Pool:        pool,
		DialTimeout: 200 * time.Millisecond,
		CallTimeout: 2 * time.Second,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.Start(selfAddr); err != nil {
		t.Fatal(err)
	}
	scfg := server.Config{Pool: pool, Owns: node.Owns, Forward: node.Forward, Logf: t.Logf}
	if cluster.Quorum() > 1 {
		scfg.Replicate = node.ReplicateAsync
	}
	srv, err := server.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node.SetClientAddr(addr.String())
	tn := &testNode{cluster: cluster, pool: pool, node: node, srv: srv, clientAddr: addr.String()}
	t.Cleanup(func() {
		tn.srv.Close()
		tn.node.Close()
	})
	return tn
}

// keysOwnedBy returns count distinct keys owned by region among n.
func keysOwnedBy(region, n, count int, salt string) []string {
	var keys []string
	for i := 0; len(keys) < count; i++ {
		name := fmt.Sprintf("%s-%d", salt, i)
		if discovery.OwnerOf(discovery.NewID(name), n) == region {
			keys = append(keys, name)
		}
	}
	return keys
}

func TestClusterMembershipDeterministic(t *testing.T) {
	addrs := []string{"10.0.0.2:7801", "10.0.0.1:7801", "10.0.0.3:7801"}
	a, err := p2p.NewCluster("10.0.0.1:7801", addrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A different bootstrap ordering, and self omitted from the list.
	b, err := p2p.NewCluster("10.0.0.3:7801", []string{"10.0.0.2:7801", "10.0.0.1:7801"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() != b.Hash() {
		t.Fatalf("same membership, different hashes: %x vs %x", a.Hash(), b.Hash())
	}
	if a.N() != 3 || b.N() != 3 {
		t.Fatalf("member counts %d, %d; want 3", a.N(), b.N())
	}
	if a.Self() != 0 || b.Self() != 2 {
		t.Fatalf("self ranks %d, %d; want 0, 2 (sorted order)", a.Self(), b.Self())
	}
	for i := 0; i < 3; i++ {
		if a.Addr(i) != b.Addr(i) {
			t.Fatalf("member %d differs: %s vs %s", i, a.Addr(i), b.Addr(i))
		}
	}
	// Every key has the same owner from both views.
	for i := 0; i < 100; i++ {
		key := discovery.NewID(fmt.Sprintf("k-%d", i))
		if a.OwnerOf(key) != b.OwnerOf(key) {
			t.Fatalf("key %d owner disagreement", i)
		}
	}
	c, err := p2p.NewCluster("10.0.0.1:7801", []string{"10.0.0.9:7801"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Hash() == a.Hash() {
		t.Fatal("different memberships share a fingerprint")
	}
}

func TestRemoteOverlayIsCompleteAndAlwaysOnline(t *testing.T) {
	cluster, err := p2p.NewCluster("h1:1", []string{"h2:1", "h3:1"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ov, err := p2p.NewRemoteOverlay(cluster)
	if err != nil {
		t.Fatal(err)
	}
	if ov.N() != 3 {
		t.Fatalf("N = %d, want 3", ov.N())
	}
	for i := 0; i < 3; i++ {
		if len(ov.Neighbors(i)) != 2 {
			t.Fatalf("node %d has %d neighbors, want 2", i, len(ov.Neighbors(i)))
		}
	}
	// Transport health must never leak into engine routing: a dead peer
	// changes forwarding behavior, not simulated-in-process routing (and
	// with it durable-replay determinism).
	ov.SetAlive(1, false)
	if !ov.Online(1, 0) {
		t.Fatal("Online observed transport health")
	}
	if ov.Alive(1) || ov.AliveCount() != 2 {
		t.Fatal("Alive flags not tracked")
	}
}

func TestForwardedRequestsServeWholeKeyspace(t *testing.T) {
	peerAddrs := testnet.ReserveAddrs(t, 2)
	n0 := startTestNode(t, peerAddrs[0], peerAddrs, true)
	n1 := startTestNode(t, peerAddrs[1], peerAddrs, true)

	c0, err := server.Dial(n0.clientAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	c1, err := server.Dial(n1.clientAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	// Drive every insert through node 0: keys owned by node 1 must be
	// forwarded, stored on node 1, and visible from both entry points.
	const keys = 40
	for i := 0; i < keys; i++ {
		name := fmt.Sprintf("span-%d", i)
		if _, err := c0.Insert(server.OriginAuto, discovery.NewID(name), []byte(name)); err != nil {
			t.Fatalf("insert %s: %v", name, err)
		}
	}
	for i := 0; i < keys; i++ {
		name := fmt.Sprintf("span-%d", i)
		for who, c := range []*server.Client{c0, c1} {
			res, err := c.Lookup(server.OriginAuto, discovery.NewID(name))
			if err != nil {
				t.Fatalf("lookup %s via node %d: %v", name, who, err)
			}
			if !res.Found {
				t.Fatalf("key %s not found via node %d", name, who)
			}
		}
	}
	// Data landed on its owner, not on the entry node.
	own0, own1 := 0, 0
	for i := 0; i < keys; i++ {
		name := fmt.Sprintf("span-%d", i)
		if n0.cluster.Owns(discovery.NewID(name)) {
			own0++
		} else {
			own1++
		}
	}
	if own1 == 0 {
		t.Fatal("test never exercised forwarding (no keys owned by node 1)")
	}
	if n1.pool.ReplicaCount() == 0 {
		t.Fatal("node 1 owns keys but stores nothing; forwarding executed locally")
	}
	// Deletes forward too. The origin that inserted is derived from the
	// key (OriginAuto), so a delete with OriginAuto removes it.
	for i := 0; i < keys; i += 4 {
		name := fmt.Sprintf("span-%d", i)
		removed, err := c1.Delete(server.OriginAuto, discovery.NewID(name))
		if err != nil {
			t.Fatalf("delete %s: %v", name, err)
		}
		if removed == 0 {
			t.Fatalf("delete %s removed nothing", name)
		}
		res, err := c0.Lookup(server.OriginAuto, discovery.NewID(name))
		if err != nil {
			t.Fatal(err)
		}
		if res.Found {
			t.Fatalf("key %s still findable after delete", name)
		}
	}
}

func TestDeadRegionFailsFastAndSurvivorsServe(t *testing.T) {
	peerAddrs := testnet.ReserveAddrs(t, 2)
	n0 := startTestNode(t, peerAddrs[0], peerAddrs, true)
	// peerAddrs[1] is never started: that region is down from birth.

	c0, err := server.Dial(n0.clientAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()

	deadRegion := 1 - n0.cluster.Self()
	owned := keysOwnedBy(n0.cluster.Self(), 2, 5, "alive")
	dead := keysOwnedBy(deadRegion, 2, 5, "dead")

	for _, name := range owned {
		if _, err := c0.Insert(server.OriginAuto, discovery.NewID(name), []byte(name)); err != nil {
			t.Fatalf("owned insert %s refused: %v", name, err)
		}
	}
	start := time.Now()
	for _, name := range dead {
		_, err := c0.Insert(server.OriginAuto, discovery.NewID(name), []byte(name))
		if err == nil {
			t.Fatalf("insert for dead region %d was acked", deadRegion)
		}
		if !strings.Contains(err.Error(), "unreachable") {
			t.Fatalf("dead-region error does not name the cause: %v", err)
		}
	}
	// Fail fast: a refused dial, not a timeout, per request.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("dead-region errors took %s; want fast refusal", elapsed)
	}
	for _, name := range owned {
		res, err := c0.Lookup(server.OriginAuto, discovery.NewID(name))
		if err != nil || !res.Found {
			t.Fatalf("owned key %s lost while a peer is down (err %v)", name, err)
		}
	}
}

func TestProbeRefusesMembershipMismatch(t *testing.T) {
	peerAddrs := testnet.ReserveAddrs(t, 2)
	startTestNode(t, peerAddrs[0], peerAddrs, true)

	// A node configured with an extra phantom member disagrees about
	// ownership; the probe handshake must catch it.
	wrong, err := p2p.NewCluster(peerAddrs[1], append(append([]string(nil), peerAddrs...), "10.9.9.9:1"), 1)
	if err != nil {
		t.Fatal(err)
	}
	ov, err := p2p.NewRemoteOverlay(wrong)
	if err != nil {
		t.Fatal(err)
	}
	tr := p2p.NewTransport(wrong, ov, p2p.TransportConfig{DialTimeout: 200 * time.Millisecond, CallTimeout: 2 * time.Second, Logf: t.Logf})
	defer tr.Close()
	var target int
	for i := 0; i < wrong.N(); i++ {
		if wrong.Addr(i) == peerAddrs[0] {
			target = i
		}
	}
	if _, err := tr.Probe(target); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("probe accepted a mismatched membership: %v", err)
	}
	// Not just probes: every peer request carries the fingerprint, so a
	// routed write from the conflicting view is refused even when the
	// two views happen to agree on the key's owner.
	route := &wire.Msg{Type: wire.TRoute, RouteKind: wire.TInsert, Cluster: wrong.Hash(),
		Key: discovery.NewID("split-brain"), Origin: wire.OriginAuto, Value: []byte("v")}
	resp, err := tr.Call(target, route)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != wire.TError || !strings.Contains(resp.ErrorText(), "mismatch") {
		t.Fatalf("routed write from a mismatched view was not refused: %v %q", resp.Type, resp.ErrorText())
	}
}

func TestJoinHandshake(t *testing.T) {
	peerAddrs := testnet.ReserveAddrs(t, 3)
	nodes := make([]*testNode, 3)
	for i := range nodes {
		nodes[i] = startTestNode(t, peerAddrs[i], peerAddrs, true)
	}
	for i, tn := range nodes {
		if err := tn.node.Join(5 * time.Second); err != nil {
			t.Fatalf("node %d join: %v", i, err)
		}
	}
}

// TestPullRepairImportsRegion: a node pulls from a peer exactly the
// entries of the asked-for region, leaves the peer's copies (and its
// entries of other regions) alone, and a second pull of an in-sync
// region applies nothing.
func TestPullRepairImportsRegion(t *testing.T) {
	peerAddrs := testnet.ReserveAddrs(t, 2)
	// Node 0's pool is unrestricted, so it can hold (and serve repair
	// pages for) keys of node 1's region.
	n0 := startTestNode(t, peerAddrs[0], peerAddrs, false)
	n1 := startTestNode(t, peerAddrs[1], peerAddrs, true)

	r0, r1 := n0.cluster.Self(), n1.cluster.Self()
	mine := keysOwnedBy(r0, 2, 6, "mine")
	theirs := keysOwnedBy(r1, 2, 6, "theirs")
	for i, name := range append(append([]string(nil), mine...), theirs...) {
		if err := n0.pool.ImportReplica(i%2, 0, discovery.NewID(name), []byte(name)); err != nil {
			t.Fatal(err)
		}
	}

	applied, err := n1.node.PullRepair(r0, r1)
	if err != nil {
		t.Fatalf("pull repair: %v", err)
	}
	if applied != len(theirs) {
		t.Fatalf("pull repair applied %d, want %d", applied, len(theirs))
	}
	for _, name := range theirs {
		key := discovery.NewID(name)
		if v, ok := n1.pool.Value(key); !ok || string(v) != name {
			t.Fatalf("pulled key %s missing on owner (ok=%v)", name, ok)
		}
		if _, ok := n0.pool.Value(key); !ok {
			t.Fatalf("pulled key %s left the peer: a pull is additive", name)
		}
	}
	if got, want := n1.pool.ReplicaCount(), len(theirs); got != want {
		t.Fatalf("node 1 holds %d replicas, want %d (region %d only)", got, want, r1)
	}
	if applied, err := n1.node.PullRepair(r0, r1); err != nil || applied != 0 {
		t.Fatalf("second pull of an in-sync region: applied %d, err %v; want 0, nil", applied, err)
	}
}

// TestPullRepairPaginatesLargeState pins the repair pagination contract
// end to end: well over 512 KiB of repairable replicas stream across in
// budgeted TRepairOK pages, each page's cursor resumes the next, and the
// pull converges with EVERY replica transferred — no silent prefix-only
// repair (the pre-pagination blind spot).
func TestPullRepairPaginatesLargeState(t *testing.T) {
	peerAddrs := testnet.ReserveAddrs(t, 2)
	n0 := startTestNode(t, peerAddrs[0], peerAddrs, false)
	n1 := startTestNode(t, peerAddrs[1], peerAddrs, true)

	r0, r1 := n0.cluster.Self(), n1.cluster.Self()
	// ~300 replicas x 4 KiB ≈ 1.2 MiB of region-r1 state on node 0:
	// more than double the ~512 KiB page budget, so convergence requires
	// at least three pages.
	const count, valueSize = 300, 4096
	names := keysOwnedBy(r1, 2, count, "paged")
	values := map[string][]byte{}
	for i, name := range names {
		v := bytes.Repeat([]byte{byte(i)}, valueSize)
		copy(v, name) // make every value distinct and self-identifying
		values[name] = v
		if err := n0.pool.ImportReplica(i%2, uint32(i%2), discovery.NewID(name), v); err != nil {
			t.Fatal(err)
		}
	}

	// First, drive the paging protocol by hand through node 1's
	// transport and pin its invariants: budgeted pages, advancing
	// cursors, More on every page but the last, exactly-once delivery.
	var cursor wire.RepairCursor
	seen := map[string]bool{}
	pages := 0
	for {
		resp, err := n1.node.Transport().Call(r0, &wire.Msg{
			Type: wire.TRepair, Cluster: n1.cluster.Hash(), Region: uint32(r1), Cursor: cursor,
		})
		if err != nil {
			t.Fatalf("repair page %d: %v", pages, err)
		}
		if resp.Type != wire.TRepairOK {
			t.Fatalf("repair page %d: %v %s", pages, resp.Type, resp.ErrorText())
		}
		pages++
		size := 0
		for j := range resp.Entries {
			e := &resp.Entries[j]
			size += wire.EntryOverhead + len(e.Value)
			k := e.Key.String()
			if seen[k] {
				t.Fatalf("entry %s delivered twice across pages", k)
			}
			seen[k] = true
		}
		if size > wire.MaxFrame/2+wire.EntryOverhead+valueSize {
			t.Fatalf("page %d carries %d bytes, far above the budget", pages, size)
		}
		if !resp.More {
			break
		}
		if resp.Cursor == cursor {
			t.Fatalf("page %d cursor did not advance", pages)
		}
		cursor = resp.Cursor
		if pages > count {
			t.Fatal("pagination never converged")
		}
	}
	if pages < 3 {
		t.Fatalf("1.2 MiB of state fit %d pages; budget not exercised", pages)
	}
	if len(seen) != count {
		t.Fatalf("pages delivered %d distinct replicas, want %d", len(seen), count)
	}

	// Then the real puller: every entry lands on node 1 with its exact
	// value.
	applied, err := n1.node.PullRepair(r0, n1.cluster.Self())
	if err != nil {
		t.Fatalf("pull repair: %v", err)
	}
	if applied != count {
		t.Fatalf("pull repair applied %d replicas, want %d", applied, count)
	}
	for _, name := range names {
		v, ok := n1.pool.Value(discovery.NewID(name))
		if !ok || !bytes.Equal(v, values[name]) {
			t.Fatalf("replica %s missing or corrupt after paginated repair (ok=%v)", name, ok)
		}
	}
}

// TestProbeTeachesClientAddrs pins the membership-table plumbing behind
// TMembersOK: probe exchanges piggyback client-serving addresses in both
// directions, so after every node joins, every node's Members() table
// names every member's client address by cluster slot.
func TestProbeTeachesClientAddrs(t *testing.T) {
	peerAddrs := testnet.ReserveAddrs(t, 3)
	nodes := make([]*testNode, 3)
	for i := range nodes {
		nodes[i] = startTestNode(t, peerAddrs[i], peerAddrs, true)
	}
	want := make([]string, 3)
	for _, tn := range nodes {
		want[tn.cluster.Self()] = tn.clientAddr
	}
	for _, tn := range nodes {
		if err := tn.node.Join(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// Join guarantees each node probed every peer (learning the peers'
	// addresses from the replies); the peers learned this node's address
	// from the same exchanges.
	for i, tn := range nodes {
		got := tn.node.Members()
		for slot, addr := range want {
			if got[slot] != addr {
				t.Fatalf("node %d Members()[%d] = %q, want %q (full table %v)", i, slot, got[slot], addr, got)
			}
		}
	}
}

// TestOutboundCoalescingSharesWrites proves the syscall claim of
// outbound coalescing on a live connection: a burst of concurrent calls
// to one peer leaves the transport with more frames written than
// write(2) invocations — the out-queue drain coalesced queued frames into
// shared vectored writes. It covers two shapes of burst. In "go-burst"
// one goroutine issues the whole burst with Transport.Go, so the frames
// land in the queue together. In "blocking-callers" 64 goroutines each
// block in Transport.Call, so each frame wakes the writer on its own;
// they share writes because the writer yields once before writing a
// batch, letting callers just woken by the previous batch's replies
// queue their next frame into it. Coalescing is still
// scheduling-dependent, so rounds accumulate until the cumulative ratio
// clears the bar.
func TestOutboundCoalescingSharesWrites(t *testing.T) {
	const callers = 64
	t.Run("go-burst", func(t *testing.T) {
		requireCoalescing(t, callers, func(tr *p2p.Transport, target int, msgs []*wire.Msg) {
			var wg sync.WaitGroup
			for _, m := range msgs {
				wg.Add(1)
				tr.Go(target, m, func(_ *wire.Msg, err error) {
					if err != nil {
						t.Errorf("call: %v", err)
					}
					wg.Done()
				})
			}
			wg.Wait()
		})
	})
	t.Run("blocking-callers", func(t *testing.T) {
		const callsEach = 8
		requireCoalescing(t, callers*callsEach, func(tr *p2p.Transport, target int, msgs []*wire.Msg) {
			var wg sync.WaitGroup
			for _, m := range msgs {
				wg.Add(1)
				go func(m *wire.Msg) {
					defer wg.Done()
					for i := 0; i < callsEach; i++ {
						if _, err := tr.Call(target, m); err != nil {
							t.Errorf("call: %v", err)
							return
						}
					}
				}(m)
			}
			wg.Wait()
		})
	})
}

// requireCoalescing starts two nodes and runs rounds of calls from the
// first to the second until the first's transport has written at least
// 1.2 frames per write, failing after 30 s. Each round calls round once
// with 64 lookups of keys the target owns; round issues callsPerRound
// calls in all and returns once every one has completed.
func requireCoalescing(t *testing.T, callsPerRound int, round func(tr *p2p.Transport, target int, msgs []*wire.Msg)) {
	peerAddrs := testnet.ReserveAddrs(t, 2)
	n0 := startTestNode(t, peerAddrs[0], peerAddrs, true)
	n1 := startTestNode(t, peerAddrs[1], peerAddrs, true)

	tr := n0.node.Transport()
	target := n1.cluster.Self()
	keys := keysOwnedBy(target, 2, 64, "coalesce")
	msgs := make([]*wire.Msg, len(keys))

	deadline := time.Now().Add(30 * time.Second)
	for r := 0; ; r++ {
		for i, name := range keys {
			msgs[i] = &wire.Msg{Type: wire.TRoute, RouteKind: wire.TLookup, Cluster: n0.cluster.Hash(),
				Key: discovery.NewID(name), Origin: wire.OriginAuto}
		}
		round(tr, target, msgs)
		if t.Failed() {
			t.FailNow()
		}
		// A write is counted after WriteTo returns, which can be after
		// the reply reached its caller: wait until the counters cover
		// every call issued so far. The two counters are read one after
		// the other, so wait for a nonzero write count too. Yield rather
		// than sleep: a sleeping test lets the runtime park idle threads,
		// and the next burst then barely coalesces on a loaded host.
		calls := uint64((r + 1) * callsPerRound)
		writes, frames := tr.WriteStats()
		for (frames < calls || writes == 0) && time.Now().Before(deadline) {
			runtime.Gosched()
			writes, frames = tr.WriteStats()
		}
		if writes == 0 {
			t.Fatal("no writes counted")
		}
		ratio := float64(frames) / float64(writes)
		if ratio >= 1.2 {
			t.Logf("coalescing after %d rounds: %d frames over %d writes (%.2f frames/write)", r+1, frames, writes, ratio)
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %d rounds still %.2f frames/write (%d frames, %d writes); outbound writes are not coalescing", r+1, ratio, frames, writes)
		}
	}
}

// TestProberFlipsAliveEagerly pins timer-driven health: a peer's death
// and recovery are observed by the background prober alone — the test
// never issues a call on the probing side.
func TestProberFlipsAliveEagerly(t *testing.T) {
	peerAddrs := testnet.ReserveAddrs(t, 2)
	peer := startTestNode(t, peerAddrs[1], peerAddrs, true)

	cluster, err := p2p.NewCluster(peerAddrs[0], peerAddrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	ov, err := p2p.NewRemoteOverlay(cluster)
	if err != nil {
		t.Fatal(err)
	}
	peerIdx := peer.cluster.Self()
	tr := p2p.NewTransport(cluster, ov, p2p.TransportConfig{DialTimeout: 200 * time.Millisecond, CallTimeout: 2 * time.Second, Logf: t.Logf})
	defer tr.Close()
	tr.StartProber(50 * time.Millisecond)

	waitAlive := func(want bool, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for ov.Alive(peerIdx) != want {
			if time.Now().After(deadline) {
				t.Fatalf("prober never observed %s (Alive=%v)", what, ov.Alive(peerIdx))
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitAlive(true, "the live peer")

	// Kill the peer: the prober must flip Alive false with no help.
	peer.srv.Close()
	peer.node.Close()
	waitAlive(false, "the peer's death")

	// Revive it on the same address: the prober must notice that too.
	startTestNode(t, peerAddrs[1], peerAddrs, true)
	waitAlive(true, "the peer's recovery")
}

// TestReplicatedKeysStoreOneEntryPerReplica pins one entry per key across
// the cluster: N distinct keys inserted through one member of a 3-member,
// R=2 cluster leave exactly N·R entries, and overwriting every key from
// another origin replaces those entries instead of adding to them.
func TestReplicatedKeysStoreOneEntryPerReplica(t *testing.T) {
	const keys, repl = 60, 2
	peerAddrs := testnet.ReserveAddrs(t, 3)
	nodes := make([]*testNode, len(peerAddrs))
	for i := range nodes {
		nodes[i] = startReplicatedNode(t, peerAddrs[i], peerAddrs, true, repl)
	}
	c, err := server.Dial(nodes[0].clientAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	total := func() int {
		n := 0
		for _, tn := range nodes {
			n += tn.pool.ReplicaCount()
		}
		return n
	}
	for round, origin := range []int{1, 2} {
		for i := 0; i < keys; i++ {
			key := discovery.NewID(fmt.Sprintf("one-entry-%d", i))
			if _, err := c.Insert(origin, key, []byte(fmt.Sprintf("v%d-%d", round, i))); err != nil {
				t.Fatalf("round %d insert %d: %v", round, i, err)
			}
		}
		// R=2 of 3 has a quorum of 2: every ack waited for both replicas.
		if got := total(); got != keys*repl {
			t.Fatalf("round %d: %d entries cluster-wide, want %d (N·R)", round, got, keys*repl)
		}
	}
	for i := 0; i < keys; i++ {
		key := discovery.NewID(fmt.Sprintf("one-entry-%d", i))
		for _, tn := range nodes {
			if v, ok := tn.pool.Value(key); ok && string(v) != fmt.Sprintf("v1-%d", i) {
				t.Fatalf("key %d on %s holds %q after the overwrite", i, tn.cluster.Addr(tn.cluster.Self()), v)
			}
		}
	}
}
