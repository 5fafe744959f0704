package p2p_test

import (
	"fmt"
	"sync"
	"sync/atomic"
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

// BenchmarkPeerCallBlocking measures the commonest peer-call shape:
// callers that each block in Transport.Call for their reply and issue
// the next call as soon as it returns, with no barrier between calls —
// forwarding goroutines, cluster clients, the load generator. Each
// caller's frame wakes the connection writer, so frames/write above 1.0
// means callers woken by one batch's replies queued into a shared write
// instead of paying a syscall each.
func BenchmarkPeerCallBlocking(b *testing.B) {
	peerAddrs := testnet.ReserveAddrs(b, 2)
	n0 := startTestNode(b, peerAddrs[0], peerAddrs, true)
	n1 := startTestNode(b, peerAddrs[1], peerAddrs, true)
	tr := n0.node.Transport()
	target := n1.cluster.Self()
	keys := keysOwnedBy(target, 2, 64, "peer-blocking")
	lookup := func(g int) *wire.Msg {
		return &wire.Msg{Type: wire.TRoute, RouteKind: wire.TLookup, Cluster: n0.cluster.Hash(),
			Key: discovery.NewID(keys[g%len(keys)]), Origin: wire.OriginAuto}
	}
	// Warm the connection so dialing is off the clock.
	if _, err := tr.Call(target, lookup(0)); err != nil {
		b.Fatal(err)
	}
	for _, callers := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			writes0, frames0 := tr.WriteStats()
			var issued atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func(m *wire.Msg) {
					defer wg.Done()
					for issued.Add(1) <= int64(b.N) {
						if _, err := tr.Call(target, m); err != nil {
							b.Error(err)
							return
						}
					}
				}(lookup(g))
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
			writes, frames := tr.WriteStats()
			if dw := writes - writes0; dw > 0 {
				b.ReportMetric(float64(frames-frames0)/float64(dw), "frames/write")
			}
		})
	}
}
