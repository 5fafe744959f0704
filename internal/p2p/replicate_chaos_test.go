package p2p_test

import (
	"testing"
	"time"

	discovery "discovery"
	"discovery/internal/faultnet"
	"discovery/internal/p2p"
	"discovery/internal/server"
	"discovery/internal/testnet"
	"discovery/internal/wire"
)

// TestReplicateRetryIdempotent pins the at-least-once delivery contract
// of the replication fan-out: a TReplicate severed between apply and
// reply (the partition lands mid-flight — the replica committed the
// mutation but the coordinator never hears the ack) is retried by a
// later coordination attempt, and the duplicate apply must be a no-op.
// Replica placement is deterministic per (origin, key), so a re-insert
// overwrites the same replica slots rather than accreting new ones —
// this test is the regression gate on that property, measured by the
// replica count staying flat across the duplicate.
//
// The severed link is a real faultnet proxy on the peer transport:
// the request direction delivers, the reply direction blackholes, which
// no in-process mock of Call can reproduce faithfully.
func TestReplicateRetryIdempotent(t *testing.T) {
	addrs := testnet.ReserveAddrs(t, 2)

	// The replica node (B): a full in-process node with R=2, so it
	// accepts TReplicate for every key.
	clusterB, err := p2p.NewCluster(addrs[1], addrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	ovB, err := p2p.NewRemoteOverlay(clusterB)
	if err != nil {
		t.Fatal(err)
	}
	poolB, err := discovery.NewPool(ovB, 2, discovery.WithSeed(1),
		discovery.WithRegion(clusterB.Self(), clusterB.N()), discovery.WithReplication(2))
	if err != nil {
		t.Fatal(err)
	}
	nodeB, err := p2p.NewNode(p2p.Config{
		Cluster:     clusterB,
		Overlay:     ovB,
		Pool:        poolB,
		DialTimeout: 200 * time.Millisecond,
		CallTimeout: 2 * time.Second,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nodeB.Start(addrs[1]); err != nil {
		t.Fatal(err)
	}
	srvB, err := server.New(server.Config{Pool: poolB, Owns: nodeB.Owns, Forward: nodeB.Forward, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srvB.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srvB.Close()
		nodeB.Close()
	})

	// The coordinator side (A): just a transport, dialing B through a
	// fault-injection proxy.
	proxy, err := faultnet.Listen("127.0.0.1:0", addrs[1], t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	clusterA, err := p2p.NewCluster(addrs[0], addrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	ovA, err := p2p.NewRemoteOverlay(clusterA)
	if err != nil {
		t.Fatal(err)
	}
	target := 1 // B's rank, unless B's address sorts first
	if clusterA.Addr(target) != addrs[1] {
		target = 0
	}
	tr := p2p.NewTransport(clusterA, ovA, p2p.TransportConfig{
		DialTimeout: 200 * time.Millisecond,
		CallTimeout: 400 * time.Millisecond,
		DialVia:     map[string]string{addrs[1]: proxy.Addr()},
		Logf:        t.Logf,
	})
	t.Cleanup(tr.Close)

	key := discovery.NewID("replicate-retry-idempotent")
	msg := func() *wire.Msg {
		return &wire.Msg{Type: wire.TReplicate, RouteKind: wire.TInsert, Cluster: clusterA.Hash(),
			Key: key, Origin: wire.OriginAuto, Value: []byte("v1")}
	}

	// Sever the reply direction only: the mutation is delivered and
	// applied on B, but the coordinator's call times out — exactly the
	// in-flight-during-partition shape.
	proxy.SetFaults(faultnet.Backward, faultnet.Faults{Blackhole: true})
	if resp, err := tr.Call(target, msg()); err == nil {
		t.Fatalf("call through severed reply link succeeded: %v", resp.Type)
	}
	// B must have applied it regardless (the request got through).
	deadline := time.Now().Add(5 * time.Second)
	for poolB.ReplicaCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("replica node never applied the severed-in-flight mutation")
		}
		time.Sleep(10 * time.Millisecond)
	}
	applied := poolB.ReplicaCount()
	if res := poolB.Lookup(int(poolB.AutoOrigin(key)), key); !res.Found {
		t.Fatal("mutation applied but key not findable on the replica")
	}

	// Heal and retry the SAME mutation — the coordinator cannot know
	// the first attempt landed, so at-least-once delivery replays it.
	proxy.Heal()
	resp, err := tr.Call(target, msg())
	if err != nil {
		t.Fatalf("retry after heal: %v", err)
	}
	if resp.Type != wire.TReplicateOK {
		t.Fatalf("retry response = %v, want TReplicateOK", resp.Type)
	}
	if got := poolB.ReplicaCount(); got != applied {
		t.Fatalf("duplicate apply changed the replica count: %d -> %d (double-apply)", applied, got)
	}
	if res := poolB.Lookup(int(poolB.AutoOrigin(key)), key); !res.Found {
		t.Fatal("key lost after duplicate apply")
	}
}
