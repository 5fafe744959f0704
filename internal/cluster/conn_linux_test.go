package cluster_test

import (
	"net"
	"syscall"
	"testing"
	"time"

	"discovery/internal/cluster"
)

// blackhole returns an address whose dials time out: a listener nobody
// accepts from, its backlog shrunk to nothing and filled, so the kernel
// drops further SYNs. The test is skipped where that does not hold.
func blackhole(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	rc, err := lis.(*net.TCPListener).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var lerr error
	if err := rc.Control(func(fd uintptr) { lerr = syscall.Listen(int(fd), 0) }); err != nil || lerr != nil {
		t.Skipf("cannot shrink the listen backlog: %v %v", err, lerr)
	}
	for i := 0; i < 8; i++ {
		nc, err := net.DialTimeout("tcp", lis.Addr().String(), 100*time.Millisecond)
		if err != nil {
			return lis.Addr().String()
		}
		t.Cleanup(func() { nc.Close() })
	}
	t.Skip("a full accept queue does not drop SYNs here")
	return ""
}

// TestTimedOutDialArmsBackoff: every call to an address that swallows
// SYNs used to burn its own full DialTimeout. After one dial has timed
// out, calls inside the backoff window fail over at once instead.
func TestTimedOutDialArmsBackoff(t *testing.T) {
	const dialTimeout = 200 * time.Millisecond
	hole := blackhole(t)
	good := startStub(t, "127.0.0.1:0", found)
	serveTable([]string{hole, good.addr}, good)
	c, err := cluster.Dial(cluster.Config{Seeds: []string{good.addr}, DialTimeout: dialTimeout, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	key := keyOwnedBy(0, 2)
	start := time.Now()
	if res, err := c.Lookup(cluster.OriginAuto, key); err != nil || !res.Found {
		t.Fatalf("lookup behind a blackholed owner: %+v, %v", res, err)
	}
	if took := time.Since(start); took < dialTimeout {
		t.Fatalf("first lookup took %s: the dial did not time out", took)
	}
	start = time.Now()
	if res, err := c.Lookup(cluster.OriginAuto, key); err != nil || !res.Found {
		t.Fatalf("lookup inside the backoff window: %+v, %v", res, err)
	}
	if took := time.Since(start); took >= dialTimeout/2 {
		t.Fatalf("lookup inside the backoff window took %s, want well under %s", took, dialTimeout/2)
	}
	if st := c.Stats(); st.Failovers != 2 {
		t.Fatalf("stats %+v, want 2 failovers", st)
	}
}
