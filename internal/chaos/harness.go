package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	discovery "discovery"
	"discovery/internal/cluster"
	"discovery/internal/faultnet"
	"discovery/internal/node"
	"discovery/internal/perturb"
	"discovery/internal/server"
	"discovery/internal/testnet"
)

// Harness topology: every directed peer link i→j gets its own faultnet
// proxy (node i dials j through it via node.Config.DialVia), and every
// node's client traffic is interposed by one more proxy that the node
// advertises via node.Config.AdvertiseClient. Cluster identity
// (bootstrap list, fingerprints, member-table slots) stays entirely on
// the real addresses; only the bytes take the detour. That gives the
// scenario runner independent control of all n(n-1) directed peer links
// plus the n client links, while the members under test are stock
// internal/node assemblies — the same code cmd/discoverynode runs —
// in this process.
const (
	nodes        = 3
	replication  = 3
	nodeCallTO   = time.Second // node-to-node call timeout (keeps fault-phase stalls short)
	clientCallTO = 2 * time.Second
	minInserts   = 12 // fault-phase insert attempts before heal may start
)

var errInjectedFsync = errors.New("chaos: injected fsync failure")

// Harness owns the cluster members, the proxy mesh, and the clients.
type Harness struct {
	t *testing.T

	peerAddrs   []string // sorted; index == region
	clientAddrs []string // fixed client listen addresses, index-aligned
	dirs        []string

	peerProxies   [][]*faultnet.Proxy // [dialer][target]; nil on the diagonal
	clientProxies []*faultnet.Proxy
	proxies       []*faultnet.Proxy // all of the above

	members    []*node.Node
	fsyncArmed []atomic.Bool // per node: its WAL fsyncs fail while set

	cc *cluster.Client
}

// newHarness reserves addresses and builds the proxy mesh, but starts
// no member yet.
func newHarness(t *testing.T) *Harness {
	t.Helper()
	h := &Harness{t: t, members: make([]*node.Node, nodes), fsyncArmed: make([]atomic.Bool, nodes)}
	t.Cleanup(h.close)

	// Sorting the reserved peer addresses makes node index == region
	// rank, so scenarios can say "node 1" and mean region 1. The
	// reserved ports lie below the ephemeral range, so the proxy mesh's
	// ":0" listeners cannot take them.
	h.peerAddrs = testnet.ReserveAddrs(t, nodes)
	sort.Strings(h.peerAddrs)
	h.clientAddrs = testnet.ReserveAddrs(t, nodes)
	h.dirs = make([]string, nodes)
	for i := range h.dirs {
		h.dirs[i] = t.TempDir()
	}

	h.peerProxies = make([][]*faultnet.Proxy, nodes)
	for i := range h.peerProxies {
		h.peerProxies[i] = make([]*faultnet.Proxy, nodes)
		for j := range h.peerProxies[i] {
			if i == j {
				continue
			}
			p, err := faultnet.Listen("127.0.0.1:0", h.peerAddrs[j], t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			h.peerProxies[i][j] = p
			h.proxies = append(h.proxies, p)
		}
	}
	h.clientProxies = make([]*faultnet.Proxy, nodes)
	for i := range h.clientProxies {
		p, err := faultnet.Listen("127.0.0.1:0", h.clientAddrs[i], t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		h.clientProxies[i] = p
		h.proxies = append(h.proxies, p)
	}
	return h
}

// startNode starts (or restarts, on the same data directory) node i.
func (h *Harness) startNode(i int) {
	h.t.Helper()
	via := make(map[string]string, nodes-1)
	for j, addr := range h.peerAddrs {
		if j != i {
			via[addr] = h.peerProxies[i][j].Addr()
		}
	}
	n, err := node.Start(node.Config{
		Listen:           h.clientAddrs[i],
		PeerListen:       h.peerAddrs[i],
		AdvertiseClient:  h.clientProxies[i].Addr(),
		Bootstrap:        h.peerAddrs,
		Replication:      replication,
		JoinTimeout:      15 * time.Second,
		DialTimeout:      250 * time.Millisecond,
		CallTimeout:      nodeCallTO,
		AntiEntropy:      true,
		AntiEntropyEvery: 750 * time.Millisecond,
		Shards:           2,
		DataDir:          h.dirs[i],
		SnapshotEvery:    64,
		Logf:             func(format string, args ...any) { h.t.Logf("node%d: "+format, append([]any{i}, args...)...) },
		DialVia:          via,
		RedialBackoff:    100 * time.Millisecond,
		ProbeInterval:    500 * time.Millisecond,
		WALSyncErr: func() error {
			if h.fsyncArmed[i].Load() {
				return errInjectedFsync
			}
			return nil
		},
	})
	if err != nil {
		h.t.Fatalf("node%d: %v", i, err)
	}
	h.members[i] = n
}

// stopNode drains node i (an orderly Close, as on SIGTERM).
func (h *Harness) stopNode(i int) {
	h.t.Helper()
	if n := h.members[i]; n != nil {
		h.members[i] = nil
		if err := n.Close(); err != nil {
			h.t.Logf("node%d: close: %v", i, err)
		}
	}
}

// close shuts down, in order, the client, every member and every proxy
// that exists. Idempotent: a passing cell calls it last, and it is the
// cleanup of a failed one.
func (h *Harness) close() {
	if h.cc != nil {
		h.cc.Close()
	}
	for i := range h.members {
		h.stopNode(i)
	}
	for _, p := range h.proxies {
		p.Close()
	}
}

// start boots every node and dials the cluster-smart client through
// the client proxies.
func (h *Harness) start() {
	h.t.Helper()
	for i := range h.members {
		h.startNode(i)
	}
	seeds := make([]string, nodes)
	for i, p := range h.clientProxies {
		seeds[i] = p.Addr()
	}
	cc, err := cluster.Dial(cluster.Config{
		Seeds:       seeds,
		DialTimeout: 500 * time.Millisecond,
		CallTimeout: clientCallTO,
		Logf:        h.t.Logf,
	})
	if err != nil {
		h.t.Fatalf("cluster dial: %v", err)
	}
	h.cc = cc
	// Wait until every member slot advertises its client proxy, so
	// routing is direct (and through our interposition) from the start.
	for slot, p := range h.clientProxies {
		h.waitMemberSlot(slot, p.Addr())
	}
}

func (h *Harness) waitMemberSlot(slot int, addr string) {
	h.t.Helper()
	for deadline := time.Now().Add(20 * time.Second); ; {
		_, members := h.cc.Members()
		if slot < len(members) && members[slot] == addr {
			return
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("member slot %d never advertised %s: %v", slot, addr, members)
		}
		time.Sleep(200 * time.Millisecond)
		h.cc.Refresh() //nolint:errcheck // retried until the deadline
	}
}

// settle inserts n keys through the smart client and waits until every
// node holds every one of them locally (R == N, so a direct lookup is
// a local read). These keys anchor the no-false-not-found invariant:
// once converged, no fault may make a lookup of them report "absent".
func (h *Harness) settle(sc Scenario, n int) []string {
	h.t.Helper()
	keys := make([]string, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("settle-%s-%d", sc.Name, i)
		var err error
		for attempt := 0; attempt < 5; attempt++ {
			if _, err = h.cc.Insert(cluster.OriginAuto, discovery.NewID(name), []byte(name)); err == nil {
				break
			}
			time.Sleep(200 * time.Millisecond)
		}
		if err != nil {
			h.t.Fatalf("settle insert %s: %v", name, err)
		}
		keys = append(keys, name)
	}
	h.converge(keys, 30*time.Second, "settle")
	return keys
}

// converge polls every node directly (bypassing the proxies) until all
// keys are found on all of them — invariant 4 and, jointly, invariant 1.
func (h *Harness) converge(keys []string, within time.Duration, phase string) {
	h.t.Helper()
	deadline := time.Now().Add(within)
	for i := 0; i < nodes; i++ {
		var c *server.Client
		defer func() {
			if c != nil {
				c.Close()
			}
		}()
		missing := len(keys)
		var lastErr error
		for {
			if c == nil {
				c, lastErr = server.Dial(h.clientAddrs[i])
			}
			if c != nil {
				missing, lastErr = countMissing(c, keys)
				if missing == 0 && lastErr == nil {
					break
				}
				if lastErr != nil {
					// The connection may be stale (node restarted);
					// dial fresh next round.
					c.Close()
					c = nil
				}
			}
			if time.Now().After(deadline) {
				h.t.Fatalf("%s: node%d never converged: %d/%d keys missing, last error: %v",
					phase, i, missing, len(keys), lastErr)
			}
			time.Sleep(250 * time.Millisecond)
		}
	}
}

func countMissing(c *server.Client, keys []string) (int, error) {
	missing := 0
	for _, k := range keys {
		res, err := c.Lookup(server.OriginAuto, discovery.NewID(k))
		if err != nil {
			return missing + 1, err
		}
		if !res.Found {
			missing++
		}
	}
	return missing, nil
}

// traffic is the fault-phase driver state.
type traffic struct {
	mu       sync.Mutex
	acked    []string
	writeErr int

	attempts     atomic.Int64
	falseAbsent  atomic.Int64
	sampleErrors []string

	wait func() // joins the workers; valid after drive returns
}

// drive runs w concurrent workers inserting fresh keys and looking up
// settled ones through the faulted links until stop closes. Write
// errors are recorded (invariant 3's observable half); a lookup that
// *succeeds* while claiming a settled key is absent trips invariant 2
// immediately.
func (h *Harness) drive(sc Scenario, settled []string, stop <-chan struct{}) *traffic {
	tr := &traffic{}
	var wg sync.WaitGroup
	const workers = 3
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("chaos-%s-w%d-%d", sc.Name, w, i)
				tr.attempts.Add(1)
				if _, err := h.cc.Insert(cluster.OriginAuto, discovery.NewID(name), []byte(name)); err == nil {
					tr.mu.Lock()
					tr.acked = append(tr.acked, name)
					tr.mu.Unlock()
				} else {
					tr.mu.Lock()
					tr.writeErr++
					if len(tr.sampleErrors) < 4 {
						tr.sampleErrors = append(tr.sampleErrors, err.Error())
					}
					tr.mu.Unlock()
				}
				k := settled[rng.Intn(len(settled))]
				res, err := h.cc.Lookup(cluster.OriginAuto, discovery.NewID(k))
				if err == nil && !res.Found {
					tr.falseAbsent.Add(1)
					h.t.Errorf("false not-found: settled key %s reported absent with no error", k)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}(w)
	}
	tr.wait = func() { wg.Wait() }
	return tr
}

// Run executes one scenario end to end: a 3-member cluster in this
// process, faulted, healed and checked. It is the entry point
// TestChaosMatrix calls per matrix cell. A passing cell ends with an
// orderly Close of the client, every member and every proxy.
func Run(t *testing.T, sc Scenario) {
	t.Logf("scenario %s: %s", sc.Name, sc.About)
	h := newHarness(t)
	h.start()

	settled := h.settle(sc, 36)
	failoversBefore := h.cc.Stats().Failovers

	// Fault phase: apply every fault, drive traffic, keep the window
	// open until the minimum insert count (and any flap quota) is met.
	window := sc.Window
	if window <= 0 {
		window = 2 * time.Second
	}
	bgStop := make(chan struct{})
	var bg sync.WaitGroup
	var flaps atomic.Int64
	rolling := false
	for _, f := range sc.Faults {
		switch f.Kind {
		case RollingRestart:
			rolling = true
		default:
			h.applyFault(f, bgStop, &bg, &flaps)
		}
	}

	trafficStop := make(chan struct{})
	tr := h.drive(sc, settled, trafficStop)

	if rolling {
		for i := 0; i < nodes; i++ {
			h.t.Logf("rolling restart: node%d", i)
			h.stopNode(i)
			time.Sleep(300 * time.Millisecond) // a short true-outage window
			h.startNode(i)
		}
	}
	end := time.Now().Add(window)
	hardCap := time.Now().Add(45 * time.Second)
	for {
		now := time.Now()
		if now.After(hardCap) {
			break
		}
		if now.After(end) && tr.attempts.Load() >= minInserts && flapQuotaMet(sc, &flaps) {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	close(trafficStop)
	tr.wait()
	close(bgStop)
	bg.Wait()

	// Heal: every proxy back to a faithful wire; fsync-poisoned nodes
	// restart with the hook disarmed (recovery clears the poisoned log).
	for _, p := range h.proxies {
		p.Heal()
	}
	for _, f := range sc.Faults {
		if f.Kind == FsyncFail {
			h.t.Logf("heal: restarting fsync-poisoned node%d", f.Node)
			h.stopNode(f.Node)
			h.fsyncArmed[f.Node].Store(false)
			h.startNode(f.Node)
		}
	}

	acked := append(append([]string(nil), settled...), tr.acked...)
	t.Logf("fault phase: %d insert attempts, %d acked, %d write errors (samples: %v), failovers %d -> %d",
		tr.attempts.Load(), len(tr.acked), tr.writeErr, tr.sampleErrors,
		failoversBefore, h.cc.Stats().Failovers)

	// Invariants 1 + 4: every acked insert on every replica after heal.
	h.converge(acked, 60*time.Second, "heal")
	// Invariant 2 was asserted live by the driver.
	if tr.falseAbsent.Load() > 0 {
		t.Fatalf("%d false not-found responses during faults", tr.falseAbsent.Load())
	}
	// Invariant 3, where the scenario makes it observable.
	if sc.ExpectWriteErrors && tr.writeErr == 0 {
		t.Fatalf("expected explicit write errors during %s, saw none in %d attempts",
			sc.Name, tr.attempts.Load())
	}
	if sc.ExpectFailovers {
		if after := h.cc.Stats().Failovers; after <= failoversBefore {
			t.Fatalf("expected client failovers during %s, counter stayed at %d", sc.Name, after)
		}
	}
	if n := flapQuota(sc); n > 0 && flaps.Load() < int64(n) {
		t.Fatalf("flap driver made %d transitions, want >= %d", flaps.Load(), n)
	}

	h.close()
}

func flapQuota(sc Scenario) int {
	for _, f := range sc.Faults {
		if f.Kind == Flap {
			return f.MinFlaps
		}
	}
	return 0
}

func flapQuotaMet(sc Scenario, flaps *atomic.Int64) bool {
	n := flapQuota(sc)
	return n == 0 || flaps.Load() >= int64(n)
}

// applyFault turns one Fault into proxy or hook operations. Background
// kinds (ResetStorm, Flap) run goroutines until bgStop closes.
func (h *Harness) applyFault(f Fault, bgStop <-chan struct{}, bg *sync.WaitGroup, flaps *atomic.Int64) {
	h.t.Helper()
	switch f.Kind {
	case Isolate:
		h.setPeerPartition(f.Node, true)
	case CutClient:
		h.clientProxies[f.Node].Partition()
	case AsymmetricOut:
		for j := range h.peerAddrs {
			if j != f.Node {
				h.peerProxies[f.Node][j].SetFaults(faultnet.Forward, faultnet.Faults{Blackhole: true})
			}
		}
	case Latency:
		h.setLinkFaults(f.Node, faultnet.Faults{Latency: f.Latency, Jitter: f.Jitter})
	case Bandwidth:
		h.setLinkFaults(f.Node, faultnet.Faults{BandwidthBps: f.Bps})
	case Reorder:
		h.setLinkFaults(f.Node, faultnet.Faults{ReorderProb: f.Prob})
	case ResetStorm:
		bg.Add(1)
		go func() {
			defer bg.Done()
			tick := time.NewTicker(f.Every)
			defer tick.Stop()
			for {
				select {
				case <-bgStop:
					return
				case <-tick.C:
				}
				for i := range h.peerProxies {
					for j, p := range h.peerProxies[i] {
						if j != i {
							p.Reset()
						}
					}
				}
			}
		}()
	case Flap:
		sched, err := perturb.New(nodes, f.Idle, f.Offline, 1.0, rand.New(rand.NewSource(42)))
		if err != nil {
			h.t.Fatal(err)
		}
		bg.Add(1)
		go func() {
			defer bg.Done()
			start := time.Now()
			online := true
			tick := time.NewTicker(25 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-bgStop:
					if !online {
						// Leave the node reachable for the heal phase.
						h.setPeerPartition(f.Node, false)
						h.clientProxies[f.Node].Heal()
					}
					return
				case <-tick.C:
				}
				on := sched.Online(f.Node, time.Since(start))
				if on == online {
					continue
				}
				online = on
				flaps.Add(1)
				h.t.Logf("flap: node%d -> online=%v", f.Node, on)
				if on {
					h.setPeerPartition(f.Node, false)
					h.clientProxies[f.Node].Heal()
				} else {
					h.setPeerPartition(f.Node, true)
					h.clientProxies[f.Node].Partition()
				}
			}
		}()
	case FsyncFail:
		h.t.Logf("chaos: arming fsync failure on node%d", f.Node)
		h.fsyncArmed[f.Node].Store(true)
	}
}

// setPeerPartition partitions (or heals) every directed peer link
// touching node, both directions.
func (h *Harness) setPeerPartition(node int, cut bool) {
	for j := range h.peerAddrs {
		if j == node {
			continue
		}
		for _, p := range []*faultnet.Proxy{h.peerProxies[node][j], h.peerProxies[j][node]} {
			if cut {
				p.Partition()
			} else {
				p.Heal()
			}
		}
	}
}

// setLinkFaults applies f to both directions of every peer link
// touching node.
func (h *Harness) setLinkFaults(node int, f faultnet.Faults) {
	for j := range h.peerAddrs {
		if j == node {
			continue
		}
		for _, p := range []*faultnet.Proxy{h.peerProxies[node][j], h.peerProxies[j][node]} {
			p.SetFaults(faultnet.Forward, f)
			p.SetFaults(faultnet.Backward, f)
		}
	}
}
