package p2p_test

import (
	"bufio"
	"net"
	"strings"
	"testing"
	"time"

	discovery "discovery"
	"discovery/internal/wire"
)

// This file pins failure-path behavior against stub peers: a real Node
// on one side, a hand-rolled wire responder on the other, so the tests
// can make a peer misbehave in ways a healthy Node never would (stuck
// repair cursors, transfer refusals) and in ways a live cluster cannot
// produce deterministically (a peer dead for an exact window).

// startStubPeer serves the peer wire protocol on addr: each decoded
// request is mapped to a reply by handle (ReqID correlation is taken
// care of here). It answers until the listener is closed at cleanup.
func startStubPeer(t *testing.T, addr string, handle func(m *wire.Msg) wire.Msg) {
	t.Helper()
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			nc, err := lis.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				defer nc.Close()
				br := bufio.NewReader(nc)
				var scratch []byte
				for {
					body, err := wire.ReadFrame(br, &scratch)
					if err != nil {
						return
					}
					var m wire.Msg
					if err := m.Decode(body); err != nil {
						return
					}
					reply := handle(&m)
					reply.ReqID = m.ReqID
					frame, err := reply.Append(nil)
					if err != nil {
						return
					}
					if _, err := nc.Write(frame); err != nil {
						return
					}
				}
			}(nc)
		}
	}()
}

// probeOK builds the stub's probe answer. Echoing the request's
// fingerprint passes the caller's membership check — these stubs play a
// peer that agrees about the cluster and misbehaves later.
func probeOK(m *wire.Msg) wire.Msg {
	return wire.Msg{Type: wire.TPeerProbeOK, Cluster: m.Cluster, Origin: m.Origin}
}

// TestPullRepairStuckCursorFails pins the stuck-cursor guard: a
// responder that keeps answering More with the SAME cursor and a
// NON-EMPTY page must fail the pull with a diagnosis, not loop forever
// re-importing the same batch. The non-empty page is the regression:
// a guard keyed on page emptiness never fires against this responder.
func TestPullRepairStuckCursorFails(t *testing.T) {
	peerAddrs := reserveAddrs(t, 2)
	n := startTestNode(t, peerAddrs[0], peerAddrs, true)
	region := n.cluster.Self()

	// Two replicas the puller genuinely accepts (owned here), served on
	// every page with a cursor that never advances.
	var entries []wire.TransferEntry
	for _, name := range keysOwnedBy(region, 2, 2, "stuck") {
		entries = append(entries, wire.TransferEntry{Key: discovery.NewID(name), Value: []byte(name)})
	}
	startStubPeer(t, peerAddrs[1], func(m *wire.Msg) wire.Msg {
		switch m.Type {
		case wire.TPeerProbe:
			return probeOK(m)
		case wire.TRepair:
			return wire.Msg{Type: wire.TRepairOK, Region: m.Region, Entries: entries, More: true, Cursor: m.Cursor}
		default:
			return wire.Msg{Type: wire.TError, Value: []byte("unexpected " + m.Type.String())}
		}
	})
	var stub int
	for i := 0; i < n.cluster.N(); i++ {
		if n.cluster.Addr(i) == peerAddrs[1] {
			stub = i
		}
	}

	done := make(chan struct{})
	var applied int
	var err error
	go func() {
		defer close(done)
		applied, err = n.node.PullRepair(stub, region)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("PullRepair is looping on a stuck cursor")
	}
	if err == nil || !strings.Contains(err.Error(), "made no progress") {
		t.Fatalf("stuck cursor not diagnosed: applied %d, err %v", applied, err)
	}
	// The first page's entries did land (the pull is additive and
	// idempotent); the guard stops the loop, it does not undo the page.
	if applied != len(entries) {
		t.Fatalf("applied %d replicas before the guard, want %d", applied, len(entries))
	}
}

// TestHandoffSurfacesRefusalReason pins the refusal diagnostics: a peer
// that answers TTransfer with TError must surface its reason. The
// regression was formatting the refusal as a short accept ("accepted 0
// of N" from the garbage Accepted field of an error frame), burying the
// peer's actual diagnosis.
func TestHandoffSurfacesRefusalReason(t *testing.T) {
	peerAddrs := reserveAddrs(t, 2)
	// Unregioned pool: the node may hold foreign keys, which is exactly
	// the state a handoff sheds.
	n := startTestNode(t, peerAddrs[0], peerAddrs, false)
	startStubPeer(t, peerAddrs[1], func(m *wire.Msg) wire.Msg {
		switch m.Type {
		case wire.TPeerProbe:
			return probeOK(m)
		case wire.TTransfer:
			return wire.Msg{Type: wire.TError, Value: []byte("simulated refusal: disk full")}
		default:
			return wire.Msg{Type: wire.TError, Value: []byte("unexpected " + m.Type.String())}
		}
	})
	var stubRegion int
	for i := 0; i < n.cluster.N(); i++ {
		if n.cluster.Addr(i) == peerAddrs[1] {
			stubRegion = i
		}
	}
	seeded := keysOwnedBy(stubRegion, 2, 5, "refused")
	for _, name := range seeded {
		if err := n.pool.ImportReplica(0, 0, discovery.NewID(name), []byte(name)); err != nil {
			t.Fatal(err)
		}
	}

	moved, err := n.node.Handoff()
	if moved != 0 {
		t.Fatalf("handoff dropped %d replicas on a refusing peer", moved)
	}
	if err == nil || !strings.Contains(err.Error(), "transfer refused") || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("refusal reason not surfaced: %v", err)
	}
	if strings.Contains(err.Error(), "accepted") {
		t.Fatalf("refusal misreported as a short accept: %v", err)
	}
	if n.pool.ReplicaCount() != len(seeded) {
		t.Fatalf("replicas lost on refusal: %d of %d remain", n.pool.ReplicaCount(), len(seeded))
	}
}

// TestJoinRetriesUntilPeerArrives pins Join's two contracts: a timeout
// with a peer still down returns an error naming exactly that peer, and
// a peer that comes up mid-join is caught by the retry loop — the join
// converges without a fresh call.
func TestJoinRetriesUntilPeerArrives(t *testing.T) {
	peerAddrs := reserveAddrs(t, 2)
	n0 := startTestNode(t, peerAddrs[0], peerAddrs, true)

	err := n0.node.Join(300 * time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "join incomplete") || !strings.Contains(err.Error(), peerAddrs[1]) {
		t.Fatalf("join with a dead peer did not name it: %v", err)
	}

	// Start the join first, the peer after: only the retry loop can see
	// the late arrival.
	joinErr := make(chan error, 1)
	go func() { joinErr <- n0.node.Join(15 * time.Second) }()
	time.Sleep(300 * time.Millisecond)
	startTestNode(t, peerAddrs[1], peerAddrs, true)
	if err := <-joinErr; err != nil {
		t.Fatalf("join did not retry its way to the late peer: %v", err)
	}
}

// TestAntiEntropyAccountsDeadPeer pins the pass's partial-failure
// accounting with one peer dead for the whole window: the error lists
// exactly the unreachable peer, while the reachable peer's data still
// converges in the same pass.
func TestAntiEntropyAccountsDeadPeer(t *testing.T) {
	peerAddrs := reserveAddrs(t, 3)
	// holder is unregioned so it can hold (and serve repair pages for)
	// keys of the puller's region; the third member never starts.
	holder := startTestNode(t, peerAddrs[0], peerAddrs, false)
	puller := startTestNode(t, peerAddrs[1], peerAddrs, true)
	deadAddr := peerAddrs[2]

	region := puller.cluster.Self()
	seeded := keysOwnedBy(region, 3, 6, "acct")
	for _, name := range seeded {
		if err := holder.pool.ImportReplica(0, 0, discovery.NewID(name), []byte(name)); err != nil {
			t.Fatal(err)
		}
	}

	moved, pulled, err := puller.node.AntiEntropy()
	if moved != 0 {
		t.Fatalf("puller moved %d replicas; it held nothing foreign", moved)
	}
	if pulled != len(seeded) {
		t.Fatalf("pulled %d replicas from the reachable peer, want %d", pulled, len(seeded))
	}
	if err == nil || !strings.Contains(err.Error(), "anti-entropy incomplete") || !strings.Contains(err.Error(), "1 peers unreachable") {
		t.Fatalf("dead peer not accounted: %v", err)
	}
	if !strings.Contains(err.Error(), deadAddr) {
		t.Fatalf("error does not name the dead peer %s: %v", deadAddr, err)
	}
	if strings.Contains(err.Error(), holder.cluster.Addr(holder.cluster.Self())) {
		t.Fatalf("error blames the reachable peer: %v", err)
	}
	// Convergence despite the dead peer: every seeded key is now local.
	for _, name := range seeded {
		if _, ok := puller.pool.Value(discovery.NewID(name)); !ok {
			t.Fatalf("key %s did not converge while a peer was down", name)
		}
	}
}
