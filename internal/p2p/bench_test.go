package p2p_test

import (
	"sync"
	"testing"

	discovery "discovery"
	"discovery/internal/testnet"
	"discovery/internal/wire"
)

// BenchmarkPeerCallPipelined measures the peer-call shape the outbound
// coalescer exists for: bursts of concurrent routed lookups arriving at
// one peer together over the transport's single multiplexed connection
// (each burst is barrier-released, the arrival pattern a node under
// pipelined client load presents to its peers). Alongside req/s it
// reports frames/write — how many peer frames each write(2) carried on
// average; above 1.0 means queued frames shared vectored writes instead
// of paying a syscall each.
func BenchmarkPeerCallPipelined(b *testing.B) {
	const burst = 64
	peerAddrs := testnet.ReserveAddrs(b, 2)
	n0 := startTestNode(b, peerAddrs[0], peerAddrs, true)
	n1 := startTestNode(b, peerAddrs[1], peerAddrs, true)

	tr := n0.node.Transport()
	target := n1.cluster.Self()
	keys := keysOwnedBy(target, 2, burst, "peer-bench")
	ids := make([]discovery.ID, len(keys))
	for i, name := range keys {
		ids[i] = discovery.NewID(name)
	}
	// Warm the connection so dialing is off the clock.
	if _, err := tr.Call(target, &wire.Msg{Type: wire.TRoute, RouteKind: wire.TLookup,
		Cluster: n0.cluster.Hash(), Key: ids[0], Origin: wire.OriginAuto}); err != nil {
		b.Fatal(err)
	}
	writes0, frames0 := tr.WriteStats()

	b.ResetTimer()
	for done := 0; done < b.N; {
		n := burst
		if left := b.N - done; left < n {
			n = left
		}
		release := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				m := &wire.Msg{Type: wire.TRoute, RouteKind: wire.TLookup, Cluster: n0.cluster.Hash(),
					Key: ids[g%len(ids)], Origin: wire.OriginAuto}
				<-release
				if _, err := tr.Call(target, m); err != nil {
					b.Error(err)
				}
			}(g)
		}
		close(release)
		wg.Wait()
		if b.Failed() {
			b.FailNow()
		}
		done += n
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	writes, frames := tr.WriteStats()
	if dw := writes - writes0; dw > 0 {
		b.ReportMetric(float64(frames-frames0)/float64(dw), "frames/write")
	}
}
