package cluster_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	discovery "discovery"
	"discovery/internal/cluster"
	"discovery/internal/p2p"
	"discovery/internal/server"
	"discovery/internal/testnet"
	"discovery/internal/trace"
)

// clusterNode is one in-process cluster member with its serving layer.
type clusterNode struct {
	cluster    *p2p.Cluster
	pool       *discovery.Pool
	node       *p2p.Node
	srv        *server.Server
	clientAddr string
	stopOnce   sync.Once
}

func (cn *clusterNode) stop() {
	cn.stopOnce.Do(func() {
		cn.srv.Close()
		cn.node.Close()
	})
}

// startNode brings up one member: peer runtime on selfAddr, client
// listener on clientAddr (may be ":0"). advertise=false withholds the
// client address from probe gossip, leaving this member's table slot
// empty cluster-wide — the relay-fallback scenario. An optional tracer
// is wired into both the serving layer and the peer runtime.
func startNode(tb testing.TB, selfAddr string, peerAddrs []string, clientAddr string, advertise bool, tracer ...*trace.Tracer) *clusterNode {
	tb.Helper()
	var tr *trace.Tracer
	if len(tracer) > 0 {
		tr = tracer[0]
	}
	cl, err := p2p.NewCluster(selfAddr, peerAddrs, 1)
	if err != nil {
		tb.Fatal(err)
	}
	ov, err := p2p.NewRemoteOverlay(cl)
	if err != nil {
		tb.Fatal(err)
	}
	pool, err := discovery.NewPool(ov, 2, discovery.WithSeed(1), discovery.WithRegion(cl.Self(), cl.N()))
	if err != nil {
		tb.Fatal(err)
	}
	node, err := p2p.NewNode(p2p.Config{
		Cluster: cl, Overlay: ov, Pool: pool,
		DialTimeout: 200 * time.Millisecond, CallTimeout: 2 * time.Second, Logf: tb.Logf,
		Tracer: tr,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := node.Start(selfAddr); err != nil {
		tb.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Pool: pool, Owns: node.Owns, Forward: node.Forward,
		ClusterHash: cl.Hash(), Members: node.Members, Logf: tb.Logf,
		Tracer: tr,
	})
	if err != nil {
		tb.Fatal(err)
	}
	addr, err := srv.Start(clientAddr)
	if err != nil {
		tb.Fatal(err)
	}
	if advertise {
		node.SetClientAddr(addr.String())
	}
	cn := &clusterNode{cluster: cl, pool: pool, node: node, srv: srv, clientAddr: addr.String()}
	tb.Cleanup(cn.stop)
	return cn
}

// startCluster brings up n members, joins them, and waits until every
// advertising member's client address has gossiped to every node.
// Result is indexed by cluster slot.
func startCluster(tb testing.TB, n int) []*clusterNode {
	tb.Helper()
	peerAddrs := testnet.ReserveAddrs(tb, n)
	bySlot := make([]*clusterNode, n)
	for _, addr := range peerAddrs {
		cn := startNode(tb, addr, peerAddrs, "127.0.0.1:0", true)
		bySlot[cn.cluster.Self()] = cn
	}
	for _, cn := range bySlot {
		if err := cn.node.Join(5 * time.Second); err != nil {
			tb.Fatal(err)
		}
	}
	// Join's probes taught every pair both addresses; verify the tables
	// are complete so routing is deterministic from the first request.
	for i, cn := range bySlot {
		members := cn.node.Members()
		for slot, want := range bySlot {
			if members[slot] != want.clientAddr {
				tb.Fatalf("node %d Members()[%d] = %q, want %q", i, slot, members[slot], want.clientAddr)
			}
		}
	}
	return bySlot
}

// keysOwnedBy returns count distinct key names owned by slot among n.
func keysOwnedBy(slot, n, count int, salt string) []string {
	var keys []string
	for i := 0; len(keys) < count; i++ {
		name := fmt.Sprintf("%s-%d", salt, i)
		if discovery.OwnerOf(discovery.NewID(name), n) == slot {
			keys = append(keys, name)
		}
	}
	return keys
}

// TestClientRoutesDirectToOwners pins the happy path: every request
// goes straight to its owner (zero relays, zero refreshes), data lands
// on the owning node, and the whole keyspace is served.
func TestClientRoutesDirectToOwners(t *testing.T) {
	nodes := startCluster(t, 3)
	cl, err := cluster.Dial(cluster.Config{Seeds: []string{nodes[0].clientAddr}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	hash, addrs := cl.Members()
	if hash != nodes[0].cluster.Hash() || len(addrs) != 3 {
		t.Fatalf("client view %016x/%d members, want %016x/3", hash, len(addrs), nodes[0].cluster.Hash())
	}

	const keys = 60
	ownedBy := make([]int, 3)
	for i := 0; i < keys; i++ {
		name := fmt.Sprintf("direct-%d", i)
		key := discovery.NewID(name)
		ownedBy[discovery.OwnerOf(key, 3)]++
		if _, err := cl.Insert(cluster.OriginAuto, key, []byte(name)); err != nil {
			t.Fatalf("insert %s: %v", name, err)
		}
	}
	for i := 0; i < keys; i++ {
		name := fmt.Sprintf("direct-%d", i)
		res, err := cl.Lookup(cluster.OriginAuto, discovery.NewID(name))
		if err != nil || !res.Found {
			t.Fatalf("lookup %s: found=%v err=%v", name, res.Found, err)
		}
	}
	for i := 0; i < keys; i += 5 {
		name := fmt.Sprintf("direct-%d", i)
		removed, err := cl.Delete(cluster.OriginAuto, discovery.NewID(name))
		if err != nil || removed == 0 {
			t.Fatalf("delete %s: removed=%d err=%v", name, removed, err)
		}
	}

	// Every region must have been exercised, and every request must have
	// executed on its owner: each node's pool saw exactly the inserts for
	// keys it owns — never a foreign write.
	for slot, cn := range nodes {
		if ownedBy[slot] == 0 {
			t.Fatalf("no test keys owned by slot %d; broaden the key set", slot)
		}
		if st := cn.pool.Stats(); st.Inserts != uint64(ownedBy[slot]) {
			t.Fatalf("slot %d executed %d inserts, owns %d keys", slot, st.Inserts, ownedBy[slot])
		}
	}
	st := cl.Stats()
	if st.Relayed != 0 || st.Refreshes != 0 {
		t.Fatalf("complete table still relayed %d / refreshed %d", st.Relayed, st.Refreshes)
	}
	if want := uint64(keys + keys + (keys+4)/5); st.Routed != want {
		t.Fatalf("routed %d requests, want %d", st.Routed, want)
	}
}

// TestClientRelayFallback pins the unknown-address path: a member that
// never advertises a client address is reached through the anchor node,
// which forwards — correct results, counted as relays.
func TestClientRelayFallback(t *testing.T) {
	peerAddrs := testnet.ReserveAddrs(t, 2)
	bySlot := make([]*clusterNode, 2)
	for i, addr := range peerAddrs {
		cn := startNode(t, addr, peerAddrs, "127.0.0.1:0", i != 1) // second-started node never advertises
		bySlot[cn.cluster.Self()] = cn
	}
	var silent *clusterNode
	for _, cn := range bySlot {
		if err := cn.node.Join(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for _, cn := range bySlot {
		members := cn.node.Members()
		for slot, other := range bySlot {
			if members[slot] == "" {
				silent = other
			}
		}
	}
	if silent == nil {
		t.Fatal("every slot advertised; the withheld address leaked")
	}
	anchor := bySlot[1-silent.cluster.Self()]

	cl, err := cluster.Dial(cluster.Config{Seeds: []string{anchor.clientAddr}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	silentKeys := keysOwnedBy(silent.cluster.Self(), 2, 5, "relay")
	for _, name := range silentKeys {
		if _, err := cl.Insert(cluster.OriginAuto, discovery.NewID(name), []byte(name)); err != nil {
			t.Fatalf("insert %s: %v", name, err)
		}
		res, err := cl.Lookup(cluster.OriginAuto, discovery.NewID(name))
		if err != nil || !res.Found {
			t.Fatalf("lookup %s through relay: found=%v err=%v", name, res.Found, err)
		}
	}
	st := cl.Stats()
	if st.Relayed != uint64(2*len(silentKeys)) {
		t.Fatalf("relayed %d, want %d (every op for the silent member)", st.Relayed, 2*len(silentKeys))
	}
	// The data still landed on its owner — the relay forwards, the
	// anchor never executes a foreign write.
	if got := silent.pool.Stats().Inserts; got != uint64(len(silentKeys)) {
		t.Fatalf("silent owner executed %d inserts, want %d", got, len(silentKeys))
	}
	if got := anchor.pool.Stats().Inserts; got != 0 {
		t.Fatalf("anchor executed %d foreign inserts", got)
	}
}

// TestStaleClientRefreshesAndNeverWritesWrongRegion is the safety test
// for view changes: a client whose member table predates a cluster
// reconfiguration (a) gets refused with TWrongView, refreshes, retries,
// and succeeds, and (b) never executes a write on a node that does not
// own the key under the NEW view — the fingerprint check runs before
// the request does.
func TestStaleClientRefreshesAndNeverWritesWrongRegion(t *testing.T) {
	peerAddrs := testnet.ReserveAddrs(t, 3)
	clientAddrs := testnet.ReserveAddrs(t, 3)

	// Cluster v1: two members on fixed client addresses.
	v1 := make([]*clusterNode, 2)
	for i, addr := range peerAddrs[:2] {
		cn := startNode(t, addr, peerAddrs[:2], clientAddrs[i], true)
		v1[cn.cluster.Self()] = cn
	}
	for _, cn := range v1 {
		if err := cn.node.Join(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	oldHash := v1[0].cluster.Hash()

	cl, err := cluster.Dial(cluster.Config{Seeds: []string{v1[0].clientAddr}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Insert(cluster.OriginAuto, discovery.NewID("warm"), []byte("w")); err != nil {
		t.Fatal(err)
	}
	_, oldAddrs := cl.Members()

	// Reconfigure: stop v1, start a three-member cluster reusing the
	// same peer and client addresses (plus one new member). The client's
	// held view is now stale: addresses still reach live nodes, but the
	// fingerprint changed and so did the region split.
	for _, cn := range v1 {
		cn.stop()
	}
	v2 := make([]*clusterNode, 3)
	clientAddrOf := map[string]int{} // v2 client addr -> v2 slot
	for i, addr := range peerAddrs {
		cn := startNode(t, addr, peerAddrs, clientAddrs[i], true)
		v2[cn.cluster.Self()] = cn
		clientAddrOf[cn.clientAddr] = cn.cluster.Self()
	}
	for _, cn := range v2 {
		if err := cn.node.Join(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	newHash := v2[0].cluster.Hash()
	if newHash == oldHash {
		t.Fatal("reconfiguration did not change the fingerprint")
	}

	// Pick a key whose stale route lands on a v2 node that does NOT own
	// it under the new split: the interesting wrong-region case.
	var name string
	var newOwner int
	for i := 0; ; i++ {
		name = fmt.Sprintf("stale-%d", i)
		key := discovery.NewID(name)
		staleAddr := oldAddrs[discovery.OwnerOf(key, len(oldAddrs))]
		newOwner = discovery.OwnerOf(key, 3)
		if hit, ok := clientAddrOf[staleAddr]; ok && hit != newOwner {
			break
		}
		if i > 10000 {
			t.Fatal("no key maps stale-owner to a non-owner")
		}
	}

	// The stale write must succeed (refresh + retry), land exactly on
	// the new owner, and execute nowhere else.
	if _, err := cl.Insert(cluster.OriginAuto, discovery.NewID(name), []byte(name)); err != nil {
		t.Fatalf("stale insert: %v", err)
	}
	st := cl.Stats()
	if st.Refreshes == 0 {
		t.Fatal("stale view served without a refresh; TWrongView never fired")
	}
	if hash, _ := cl.Members(); hash != newHash {
		t.Fatalf("client view %016x after refresh, want %016x", hash, newHash)
	}
	for slot, cn := range v2 {
		got := cn.pool.Stats().Inserts
		want := uint64(0)
		if slot == newOwner {
			want = 1
		}
		if got != want {
			t.Fatalf("v2 slot %d executed %d inserts, want %d — a stale write ran on the wrong region", slot, got, want)
		}
	}
	res, err := cl.Lookup(cluster.OriginAuto, discovery.NewID(name))
	if err != nil || !res.Found {
		t.Fatalf("lookup after refreshed write: found=%v err=%v", res.Found, err)
	}

	// A mismatch error at the protocol level must not leak to callers as
	// a hard failure more than the retry budget allows: a second write
	// through the now-fresh view is clean.
	before := cl.Stats().Refreshes
	if _, err := cl.Insert(cluster.OriginAuto, discovery.NewID(name+"-again"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if cl.Stats().Refreshes != before {
		t.Fatal("fresh view refreshed again")
	}
}

// TestDialRefusesNonClusterServer pins the bootstrap error: a plain
// single-process server has no member table, and Dial must say so
// rather than hang or rout blindly.
func TestDialRefusesNonClusterServer(t *testing.T) {
	ov, err := discovery.CompleteOverlay(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := discovery.NewPool(ov, 2, discovery.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Pool: pool, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	_, err = cluster.Dial(cluster.Config{Seeds: []string{addr.String()}, Logf: t.Logf})
	if err == nil || !strings.Contains(err.Error(), "member table") {
		t.Fatalf("dialing a non-cluster server: %v", err)
	}
}

// TestStaleRetryKeepsTraceID drives the client's own TWrongView
// refresh-and-retry loop with a caller-stamped trace ID and checks the
// ID survives the detour: the stale node records the zero-duration
// wrong_view bounce and the new owner records the execution, both under
// the one ID the caller chose.
func TestStaleRetryKeepsTraceID(t *testing.T) {
	peerAddrs := testnet.ReserveAddrs(t, 3)
	clientAddrs := testnet.ReserveAddrs(t, 3)

	// Cluster v1: two members on fixed client addresses.
	v1 := make([]*clusterNode, 2)
	for i, addr := range peerAddrs[:2] {
		cn := startNode(t, addr, peerAddrs[:2], clientAddrs[i], true)
		v1[cn.cluster.Self()] = cn
	}
	for _, cn := range v1 {
		if err := cn.node.Join(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	cl, err := cluster.Dial(cluster.Config{Seeds: []string{v1[0].clientAddr}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Insert(cluster.OriginAuto, discovery.NewID("warm"), []byte("w")); err != nil {
		t.Fatal(err)
	}
	_, oldAddrs := cl.Members()

	// Reconfigure to v2 with tracers on every member; the client's view
	// is now stale.
	for _, cn := range v1 {
		cn.stop()
	}
	v2 := make([]*clusterNode, 3)
	tracers := make([]*trace.Tracer, 3)
	clientAddrOf := map[string]int{}
	for i, addr := range peerAddrs {
		tr := trace.New(trace.Config{SampleEvery: 1})
		cn := startNode(t, addr, peerAddrs, clientAddrs[i], true, tr)
		v2[cn.cluster.Self()] = cn
		tracers[cn.cluster.Self()] = tr
		clientAddrOf[cn.clientAddr] = cn.cluster.Self()
	}
	for _, cn := range v2 {
		if err := cn.node.Join(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}

	// Key whose stale route lands on a v2 node that does not own it
	// under the new split, so the retry really changes destination.
	var name string
	var staleSlot, newOwner int
	for i := 0; ; i++ {
		name = fmt.Sprintf("stale-trace-%d", i)
		key := discovery.NewID(name)
		staleAddr := oldAddrs[discovery.OwnerOf(key, len(oldAddrs))]
		newOwner = discovery.OwnerOf(key, 3)
		if hit, ok := clientAddrOf[staleAddr]; ok && hit != newOwner {
			staleSlot = hit
			break
		}
		if i > 10000 {
			t.Fatal("no key maps stale-owner to a non-owner")
		}
	}

	const fixedID uint64 = 0xFEEDBEEF12345678
	if _, err := cl.InsertTraced(cluster.OriginAuto, discovery.NewID(name), []byte(name), fixedID); err != nil {
		t.Fatalf("traced stale insert: %v", err)
	}
	if cl.Stats().Refreshes == 0 {
		t.Fatal("stale view served without a refresh; TWrongView never fired")
	}

	kindsWithID := func(slot int) map[trace.Kind]int {
		got := map[trace.Kind]int{}
		for _, sp := range tracers[slot].Snapshot() {
			if sp.Trace == fixedID {
				got[sp.Kind]++
			}
		}
		return got
	}
	if got := kindsWithID(staleSlot); got[trace.KindWrongView] == 0 {
		t.Fatalf("stale node %d has no wrong_view span for %016x (has %v)", staleSlot, fixedID, got)
	}
	got := kindsWithID(newOwner)
	for _, kind := range []trace.Kind{trace.KindDispatch, trace.KindQueueWait, trace.KindShardExec, trace.KindRespFlush} {
		if got[kind] == 0 {
			t.Fatalf("new owner %d missing %v span for %016x after the retry (has %v)", newOwner, kind, fixedID, got)
		}
	}
}
