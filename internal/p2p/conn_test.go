package p2p

import (
	"bufio"
	"net"
	"testing"
	"time"

	discovery "discovery"
	"discovery/internal/testnet"
	"discovery/internal/wire"
)

// TestNodeForgetsClosedConns is the peer listener's twin of the client
// listener's TestServerForgetsClosedConns: entries must not accumulate
// after peers disconnect.
func TestNodeForgetsClosedConns(t *testing.T) {
	self := testnet.ReserveAddrs(t, 1)[0]
	cluster, err := NewCluster(self, []string{self}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ov, err := NewRemoteOverlay(cluster)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := discovery.NewPool(ov, 2)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(Config{Cluster: cluster, Overlay: ov, Pool: pool, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := n.Start(self)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	probe, err := (&wire.Msg{Type: wire.TPeerProbe, Cluster: cluster.Hash()}).Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		nc, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write(probe); err != nil {
			t.Fatal(err)
		}
		var scratch []byte
		nc.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
		body, err := wire.ReadFrame(bufio.NewReader(nc), &scratch)
		if err != nil {
			t.Fatal(err)
		}
		var m wire.Msg
		if err := m.Decode(body); err != nil || m.Type != wire.TPeerProbeOK {
			t.Fatalf("probe answered %v (%v), want TPeerProbeOK", m.Type, err)
		}
		nc.Close()
	}
	// Closing is asynchronous (reader EOF -> drain -> writer close);
	// poll briefly for the set to empty.
	deadline := time.Now().Add(5 * time.Second)
	for {
		live := n.ln.Len()
		if live == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d peer connections still tracked after all peers closed", live)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
