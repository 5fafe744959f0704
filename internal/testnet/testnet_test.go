package testnet

import (
	"fmt"
	"net"
	"os"
	"strconv"
	"testing"
)

// TestReserveAddrsBelowEphemeralRange pins the two promises callers rely
// on: the addresses are distinct and bindable once returned, and, where
// the kernel's ephemeral range is readable, every port lies below it.
func TestReserveAddrsBelowEphemeralRange(t *testing.T) {
	lo := 0
	if b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		fmt.Sscan(string(b), &lo) //nolint:errcheck // lo stays 0: range unknown
	}
	addrs := ReserveAddrs(t, 8)
	if len(addrs) != 8 {
		t.Fatalf("got %d addresses, want 8", len(addrs))
	}
	seen := make(map[string]bool)
	for _, a := range addrs {
		if seen[a] {
			t.Fatalf("address %s handed out twice in %v", a, addrs)
		}
		seen[a] = true
		_, p, err := net.SplitHostPort(a)
		if err != nil {
			t.Fatal(err)
		}
		port, err := strconv.Atoi(p)
		if err != nil {
			t.Fatal(err)
		}
		if lo > floor+1000 && (port < floor || port >= lo) {
			t.Errorf("port %d outside [%d, %d)", port, floor, lo)
		}
		l, err := net.Listen("tcp", a)
		if err != nil {
			t.Fatalf("reserved address %s not bindable: %v", a, err)
		}
		l.Close()
	}
}
