// Package testnet hands tests loopback addresses for listeners that are
// bound later: a cluster's peer addresses must be known to every member
// before any member starts, so they cannot be ":0".
package testnet

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"testing"
)

// floor is the lowest port ReserveAddrs draws; below it sit the ports
// well-known services and hand-started nodes tend to use.
const floor = 10000

// ReserveAddrs returns n distinct loopback addresses that were free a
// moment ago, released before it returns so that the caller's listeners
// can bind them.
//
// The ports are drawn from below the kernel's ephemeral range. A port
// released back into that range is fair game for the next bind to ":0"
// or outgoing connection of any process on the host, and go test runs
// packages in parallel, so now and then another package's listener or
// dial takes a released ephemeral port before the member it was meant
// for binds it. Below the range only an explicit bind can take a port.
// Where the range cannot be read, ":0" has to do.
func ReserveAddrs(tb testing.TB, n int) []string {
	tb.Helper()
	lo := 0
	if b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		fmt.Sscan(string(b), &lo) //nolint:errcheck // lo stays 0: fall back to ":0"
	}
	addrs := make([]string, 0, n)
	liss := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range liss {
			l.Close()
		}
	}()
	for tries := 0; len(addrs) < n; tries++ {
		addr := "127.0.0.1:0"
		if lo > floor+1000 && tries < 50*n {
			addr = fmt.Sprintf("127.0.0.1:%d", floor+rand.Intn(lo-floor))
		}
		l, err := net.Listen("tcp", addr)
		if err != nil {
			if addr == "127.0.0.1:0" {
				tb.Fatal(err)
			}
			continue // taken; draw again
		}
		liss = append(liss, l)
		addrs = append(addrs, l.Addr().String())
	}
	return addrs
}
