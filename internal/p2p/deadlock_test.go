package p2p

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	discovery "discovery"
	"discovery/internal/wire"
)

// TestCoordinatorsCannotStarveEachOther pins the invariant peerHandler's
// TReplicate lane and the pool's commit combiner share: a replica apply
// waits only on local work (a worker of its own lane, the local log),
// never on a peer. Two durable nodes, each the other's only co-replica,
// coordinate far more writes at each other than inboundWorkers: every
// regular worker on both sides is a route handler parked on the other
// node's replicate ack. If those applies queued behind route handlers —
// or behind anything that itself waits on a peer — neither side could
// ever ack the other.
func TestCoordinatorsCannotStarveEachOther(t *testing.T) {
	var addrs []string
	for i := 0; i < 2; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, lis.Addr().String())
		lis.Close()
	}
	nodes := make([]*Node, 2)
	for i, self := range addrs {
		cluster, err := NewCluster(self, addrs, 2)
		if err != nil {
			t.Fatal(err)
		}
		ov, err := NewRemoteOverlay(cluster)
		if err != nil {
			t.Fatal(err)
		}
		dp, _, err := discovery.OpenDurablePool(ov, 2, discovery.DurableConfig{Dir: t.TempDir()},
			discovery.WithSeed(1), discovery.WithRegion(cluster.Self(), cluster.N()), discovery.WithReplication(2))
		if err != nil {
			t.Fatal(err)
		}
		n, err := NewNode(Config{Cluster: cluster, Overlay: ov, Pool: dp.Pool, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Start(self); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			n.Close()
			dp.Close()
		})
		nodes[i] = n
	}

	const writes = 4 * inboundWorkers
	errs := make(chan error, 2*writes)
	var wg sync.WaitGroup
	for i, n := range nodes {
		peer := 1 - n.cfg.Cluster.Self()
		for w := 0; w < writes; w++ {
			wg.Add(1)
			go func(n *Node, key discovery.ID) {
				defer wg.Done()
				resp, err := n.tr.Call(peer, &wire.Msg{Type: wire.TRoute, RouteKind: wire.TInsert,
					Cluster: n.cfg.Cluster.Hash(), Key: key, Origin: wire.OriginAuto, Value: []byte("v")})
				if err == nil && resp.Type != wire.TInsertOK {
					err = fmt.Errorf("%v: %s", resp.Type, resp.ErrorText())
				}
				errs <- err
			}(n, discovery.NewID(fmt.Sprintf("starve-%d-%d", i, w)))
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cross-coordinated writes did not finish: replica applies are starved")
	}
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
