package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	discovery "discovery"
	"discovery/internal/cluster"
	"discovery/internal/server"
)

// This file is the end-to-end proof of the p2p deployment: three real
// discoverynode processes on loopback, each owning one keyspace region
// with its own durable data directory. Mixed traffic is driven through
// every node (so forwarding is exercised in both directions), then one
// node is SIGKILLed mid-cluster and restarted on its data directory.
// The contract under test:
//
//   - every acked insert is findable from every node,
//   - a dead region fails with an explicit error while the survivors
//     keep serving their regions,
//   - the restarted node recovers its region with zero acked-insert
//     loss.
//
// It is the cluster-shaped sibling of crash_test.go and runs under -race
// in CI (the race detector instruments the client side;
// the daemons are separate processes).

// buildNode compiles the discoverynode binary once per test run.
func buildNode(t testing.TB) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go toolchain not on PATH: %v", err)
	}
	bin := filepath.Join(t.TempDir(), "discoverynode")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// reservePeerAddrs grabs n loopback addresses for peer listeners by
// binding and releasing ephemeral ports. Peer addresses must be known to
// every member before any process starts, so they cannot be ":0".
func reservePeerAddrs(t testing.TB, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	liss := make([]net.Listener, n)
	for i := range addrs {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		liss[i] = lis
		addrs[i] = lis.Addr().String()
	}
	for _, lis := range liss {
		lis.Close()
	}
	return addrs
}

var clientAddrRe = regexp.MustCompile(`serving clients on (127\.0\.0\.1:\d+) \(region`)

var metricsAddrRe = regexp.MustCompile(`metrics on http://(127\.0\.0\.1:\d+)/metrics`)

// nodeProc is one running cluster member.
type nodeProc struct {
	cmd         *exec.Cmd
	clientAddr  string
	metricsAddr string
}

// scrapeMetrics fetches one node's /metrics endpoint and sums the
// samples of each family (labels collapsed): pool_ops{op=insert} and
// pool_ops{op=lookup} both land under "pool_ops". Family presence is
// checkable via the returned map even at value 0.
func scrapeMetrics(t *testing.T, addr string) map[string]float64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("scrape %s: %v", addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("scrape %s: HTTP %d: %s", addr, resp.StatusCode, body)
	}
	sums := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("scrape %s: malformed line %q", addr, line)
		}
		name := line[:sp]
		if lb := strings.IndexByte(name, '{'); lb >= 0 {
			name = name[:lb]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("scrape %s: bad value in %q: %v", addr, line, err)
		}
		sums[name] += v
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scrape %s: %v", addr, err)
	}
	return sums
}

// startNode launches one member and waits for its serving line. The
// client listener is ephemeral (scraped from the log); the peer address
// is fixed cluster configuration. extra flags are appended (e.g.
// tracing knobs).
func startNode(t testing.TB, bin, peerAddr string, peers []string, dataDir string, extra ...string) *nodeProc {
	t.Helper()
	args := []string{
		"-listen", "127.0.0.1:0",
		"-peer-listen", peerAddr,
		"-bootstrap", strings.Join(peers, ","),
		"-data-dir", dataDir, "-fsync", "batch", "-snapshot-every", "64",
		"-shards", "2",
		"-join-timeout", "15s",
		"-dial-timeout", "250ms",
		"-call-timeout", "3s",
		"-metrics-listen", "127.0.0.1:0",
	}
	args = append(args, extra...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	metricsCh := make(chan string, 1)
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			t.Logf("node[%s]: %s", peerAddr, line)
			if m := clientAddrRe.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
			if m := metricsAddrRe.FindStringSubmatch(line); m != nil {
				select {
				case metricsCh <- m[1]:
				default:
				}
			}
		}
	}()
	t.Cleanup(func() {
		cmd.Process.Kill() //nolint:errcheck
		cmd.Wait()         //nolint:errcheck
		<-scanDone
	})
	p := &nodeProc{cmd: cmd}
	deadline := time.After(30 * time.Second)
	for p.clientAddr == "" || p.metricsAddr == "" {
		select {
		case addr := <-addrCh:
			p.clientAddr = addr
		case addr := <-metricsCh:
			p.metricsAddr = addr
		case <-deadline:
			t.Fatalf("node never reported its addresses (client %q, metrics %q)", p.clientAddr, p.metricsAddr)
		}
	}
	return p
}

// lookupWithRetry tolerates the one transient the architecture allows: a
// forward may need to redial a peer that just (re)started.
func lookupWithRetry(c *server.Client, key discovery.ID) (found bool, err error) {
	for attempt := 0; attempt < 5; attempt++ {
		res, lerr := c.Lookup(server.OriginAuto, key)
		if lerr == nil {
			return res.Found, nil
		}
		err = lerr
		time.Sleep(200 * time.Millisecond)
	}
	return false, err
}

func TestClusterServeKillRecover(t *testing.T) {
	bin := buildNode(t)
	peerAddrs := reservePeerAddrs(t, 3)
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}

	// A node's region is its peer address's rank in the sorted member
	// list; the test mirrors the derivation to reason about ownership.
	sorted := append([]string(nil), peerAddrs...)
	sort.Strings(sorted)
	regionOf := make(map[string]int, 3)
	for r, a := range sorted {
		regionOf[a] = r
	}
	ownerRegion := func(name string) int { return discovery.OwnerOf(discovery.NewID(name), 3) }

	// Replication 1 pins the original single-owner semantics this test
	// proves: a dead region fails fast and exactly one node holds each
	// key. TestClusterReplicatedKillFailover covers the replicated mode.
	procs := make([]*nodeProc, 3)
	for i := range procs {
		procs[i] = startNode(t, bin, peerAddrs[i], peerAddrs, dirs[i], "-replication", "1")
	}
	clients := make([]*server.Client, 3)
	for i := range clients {
		c, err := server.Dial(procs[i].clientAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}

	// Phase 1: mixed traffic through every node. Each insert is acked
	// and immediately read back through a different node, so forwarding
	// runs in both directions from the start.
	const total = 180
	var keys []string
	perRegion := make([]int, 3)
	for i := 0; i < total; i++ {
		name := fmt.Sprintf("cluster-key-%d", i)
		via := i % 3
		if _, err := clients[via].Insert(server.OriginAuto, discovery.NewID(name), []byte(name)); err != nil {
			t.Fatalf("insert %s via node %d: %v", name, via, err)
		}
		keys = append(keys, name)
		perRegion[ownerRegion(name)]++
		res, err := clients[(via+1)%3].Lookup(server.OriginAuto, discovery.NewID(name))
		if err != nil {
			t.Fatalf("read-back %s: %v", name, err)
		}
		if !res.Found {
			t.Fatalf("acked insert %s not visible from the next node", name)
		}
	}
	for r, n := range perRegion {
		if n == 0 {
			t.Fatalf("region %d owns no test keys; ownership split is broken", r)
		}
	}
	t.Logf("inserted %d keys (per region: %v)", total, perRegion)

	// Phase 2: every acked insert findable from every node.
	for who, c := range clients {
		for _, name := range keys {
			res, err := c.Lookup(server.OriginAuto, discovery.NewID(name))
			if err != nil {
				t.Fatalf("lookup %s via node %d: %v", name, who, err)
			}
			if !res.Found {
				t.Fatalf("key %s not findable via node %d", name, who)
			}
		}
	}

	// Phase 2b: scrape every live node's /metrics mid-cluster. The
	// instrumentation contract: the cluster-level families exist on every
	// node, forwarded traffic shows up somewhere (each insert above was
	// read back via a different node, so ~2/3 of requests crossed nodes),
	// durability shows up as fsyncs, and the binary TStatsOK speaks from
	// the same registry — the counts must match exactly on a quiet node.
	first := make([]map[string]float64, 3)
	for i, p := range procs {
		first[i] = scrapeMetrics(t, p.metricsAddr)
	}
	for i, m := range first {
		for _, fam := range []string{
			"server_requests", "server_routed", "server_forwarded", "server_wrongview", "server_shed",
			"server_queue_wait_seconds_count", "server_service_seconds_count", "server_frames_per_write_count",
			"pool_ops", "wal_fsyncs", "wal_fsync_seconds_count", "wal_records",
			"p2p_calls", "p2p_call_seconds_count", "p2p_dials", "p2p_writes", "p2p_frames",
			"p2p_peer_writes", "p2p_peer_frames",
		} {
			if _, ok := m[fam]; !ok {
				t.Fatalf("node %d /metrics is missing family %s", i, fam)
			}
		}
		if m["wal_fsyncs"] == 0 {
			t.Fatalf("node %d logged mutations but wal_fsyncs is 0", i)
		}
	}
	routedTotal, forwardedTotal := 0.0, 0.0
	for _, m := range first {
		routedTotal += m["server_routed"]
		forwardedTotal += m["server_forwarded"]
	}
	if routedTotal+forwardedTotal == 0 {
		t.Fatal("no cross-node traffic visible in server_routed/server_forwarded across the cluster")
	}
	// TStatsOK cross-check: the binary stats protocol reads the same
	// registry counters the scrape renders.
	for i, c := range clients {
		st, err := c.Stats()
		if err != nil {
			t.Fatalf("TStats via node %d: %v", i, err)
		}
		m := scrapeMetrics(t, procs[i].metricsAddr)
		if got, want := m["pool_lookups_found"], float64(st.Found); got != want {
			t.Fatalf("node %d: /metrics pool_lookups_found %v != TStatsOK Found %v", i, got, want)
		}
		ops := m["pool_ops"]
		if want := float64(st.Inserts + st.Lookups + st.Deletes); ops != want {
			t.Fatalf("node %d: /metrics pool_ops total %v != TStatsOK total %v", i, ops, want)
		}
	}
	// Monotonicity: more forwarded traffic, then a second scrape — every
	// cumulative counter must be >= its first reading, and the traffic
	// counters strictly greater.
	for i := 0; i < 30; i++ {
		name := fmt.Sprintf("scrape-key-%d", i)
		via := i % 3
		if _, err := clients[via].Insert(server.OriginAuto, discovery.NewID(name), []byte(name)); err != nil {
			t.Fatalf("insert %s via node %d: %v", name, via, err)
		}
		keys = append(keys, name)
	}
	for i, p := range procs {
		second := scrapeMetrics(t, p.metricsAddr)
		for _, ctr := range []string{"server_requests", "server_routed", "server_forwarded", "wal_fsyncs", "wal_records", "pool_ops", "p2p_calls"} {
			if second[ctr] < first[i][ctr] {
				t.Fatalf("node %d: counter %s went backwards across scrapes: %v -> %v", i, ctr, first[i][ctr], second[ctr])
			}
		}
		if second["server_requests"] <= first[i]["server_requests"] {
			t.Fatalf("node %d: server_requests did not advance across traffic (%v -> %v)", i, first[i]["server_requests"], second["server_requests"])
		}
	}
	t.Logf("mid-traffic scrape OK on all 3 nodes (%v routed + %v forwarded cluster-wide)", routedTotal, forwardedTotal)

	// Phase 3: SIGKILL one node mid-cluster. No drain, no final
	// snapshot: recovery must come from the write-ahead log.
	const victim = 2
	victimRegion := regionOf[peerAddrs[victim]]
	if err := procs[victim].cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	procs[victim].cmd.Wait() //nolint:errcheck // killed on purpose
	t.Logf("killed node %d (region %d, %d keys)", victim, victimRegion, perRegion[victimRegion])

	// Survivors keep serving their regions; the dead region fails with
	// an explicit error, never a false not-found.
	deadErrs := 0
	for who, c := range clients {
		if who == victim {
			continue
		}
		for _, name := range keys {
			if ownerRegion(name) == victimRegion {
				// One attempt, no retry: the error is the expected
				// outcome, and it must be fast (a refused dial, not a
				// timeout).
				res, err := c.Lookup(server.OriginAuto, discovery.NewID(name))
				if err == nil {
					t.Fatalf("lookup of dead-region key %s via node %d returned found=%v, want error", name, who, res.Found)
				}
				deadErrs++
				continue
			}
			found, err := lookupWithRetry(c, discovery.NewID(name))
			if err != nil {
				t.Fatalf("lookup %s via node %d while peer down: %v", name, who, err)
			}
			if !found {
				t.Fatalf("surviving-region key %s lost on node %d after peer death", name, who)
			}
		}
	}
	if deadErrs == 0 {
		t.Fatal("no dead-region lookups exercised")
	}
	// Survivors also keep accepting writes for their own regions.
	newOwned := 0
	for i := 0; newOwned < 6; i++ {
		name := fmt.Sprintf("post-kill-%d", i)
		r := ownerRegion(name)
		if r == victimRegion {
			continue
		}
		var via int
		for j := range procs {
			if j != victim && regionOf[peerAddrs[j]] == r {
				via = j
			}
		}
		if _, err := clients[via].Insert(server.OriginAuto, discovery.NewID(name), []byte(name)); err != nil {
			t.Fatalf("survivor insert %s: %v", name, err)
		}
		keys = append(keys, name)
		newOwned++
	}

	// Phase 4: restart the victim on its data directory. It must
	// recover its region from WAL + snapshots and rejoin; after that,
	// every insert ever acked is findable from every node again —
	// zero acked-insert loss.
	procs[victim] = startNode(t, bin, peerAddrs[victim], peerAddrs, dirs[victim], "-replication", "1")
	c, err := server.Dial(procs[victim].clientAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	clients[victim] = c

	lost := 0
	for who, c := range clients {
		for _, name := range keys {
			found, err := lookupWithRetry(c, discovery.NewID(name))
			if err != nil {
				t.Fatalf("post-restart lookup %s via node %d: %v", name, who, err)
			}
			if !found {
				lost++
				t.Errorf("acked key %s not findable via node %d after restart", name, who)
			}
		}
	}
	t.Logf("verified %d acked inserts from all 3 nodes after SIGKILL+restart (%d lost)", len(keys), lost)

	// The restarted node's scrape must expose what recovery did: a
	// SIGKILLed node with acked mutations recovers from snapshots and/or
	// the WAL tail, so the recovery gauges exist and something nonzero
	// was restored.
	rm := scrapeMetrics(t, procs[victim].metricsAddr)
	for _, g := range []string{"recovery_snapshot_entries", "recovery_wal_records_replayed", "recovery_millis"} {
		if _, ok := rm[g]; !ok {
			t.Fatalf("restarted node /metrics is missing %s", g)
		}
	}
	if rm["recovery_snapshot_entries"]+rm["recovery_wal_records_replayed"] == 0 {
		t.Fatal("restarted node reports zero recovered state despite acked mutations before SIGKILL")
	}
	t.Logf("restart scrape: %v snapshot entries, %v wal records replayed in %vms",
		rm["recovery_snapshot_entries"], rm["recovery_wal_records_replayed"], rm["recovery_millis"])

	// Phase 5: the whole cluster drains cleanly on SIGTERM (containers
	// stop nodes this way).
	for i, p := range procs {
		if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := p.cmd.Wait(); err != nil {
			t.Fatalf("node %d exit after SIGTERM: %v", i, err)
		}
	}
}

// waitMemberSlot polls the cluster-smart client's member table until
// slot advertises addr (gossip fills the table; a restarted node's new
// ephemeral client address replaces its old one the same way).
func waitMemberSlot(t testing.TB, cc *cluster.Client, slot int, addr string) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); ; {
		_, members := cc.Members()
		if slot < len(members) && members[slot] == addr {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("member table slot %d never advertised %s: %v", slot, addr, members)
		}
		time.Sleep(200 * time.Millisecond)
		cc.Refresh() //nolint:errcheck // retried until the deadline
	}
}

// lookupSmartRetry is lookupWithRetry for the cluster-smart client: the
// client already fails over across replicas, so retries only cover
// transient redials around a node (re)start.
func lookupSmartRetry(c *cluster.Client, key discovery.ID) (found bool, err error) {
	for attempt := 0; attempt < 5; attempt++ {
		res, lerr := c.Lookup(cluster.OriginAuto, key)
		if lerr == nil {
			return res.Found, nil
		}
		err = lerr
		time.Sleep(200 * time.Millisecond)
	}
	return false, err
}

// TestClusterReplicatedKillFailover is the end-to-end proof of N-way
// replication: three nodes at the default -replication (3, quorum 2),
// one SIGKILLed under live traffic. The contract under test:
//
//   - with any one node dead, every region keeps serving reads (the
//     client fails over to a live replica) and quorum writes (any live
//     replica coordinates and reaches quorum on the survivors),
//   - no acked insert is ever lost: after the victim restarts and
//     anti-entropy converges, every key acked at any point — including
//     during the outage — is findable, on the restarted node itself.
func TestClusterReplicatedKillFailover(t *testing.T) {
	bin := buildNode(t)
	peerAddrs := reservePeerAddrs(t, 3)
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}

	sorted := append([]string(nil), peerAddrs...)
	sort.Strings(sorted)
	regionOf := make(map[string]int, 3)
	for r, a := range sorted {
		regionOf[a] = r
	}
	ownerRegion := func(name string) int { return discovery.OwnerOf(discovery.NewID(name), 3) }

	procs := make([]*nodeProc, 3)
	for i := range procs {
		procs[i] = startNode(t, bin, peerAddrs[i], peerAddrs, dirs[i])
	}

	// The cluster-smart client learns replicas from the member table and
	// is the failover path under test. Gossip fills the table; wait for
	// every slot.
	cc, err := cluster.Dial(cluster.Config{
		Seeds: []string{procs[0].clientAddr, procs[1].clientAddr, procs[2].clientAddr},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	for i := range procs {
		waitMemberSlot(t, cc, regionOf[peerAddrs[i]], procs[i].clientAddr)
	}

	// Phase 1: quorum-acked inserts across every region, each read back
	// through its owner route.
	const total = 120
	var keys []string
	perRegion := make([]int, 3)
	for i := 0; i < total; i++ {
		name := fmt.Sprintf("repl-key-%d", i)
		if _, err := cc.Insert(cluster.OriginAuto, discovery.NewID(name), []byte(name)); err != nil {
			t.Fatalf("insert %s: %v", name, err)
		}
		keys = append(keys, name)
		perRegion[ownerRegion(name)]++
		res, err := cc.Lookup(cluster.OriginAuto, discovery.NewID(name))
		if err != nil {
			t.Fatalf("read-back %s: %v", name, err)
		}
		if !res.Found {
			t.Fatalf("acked insert %s not visible through its owner", name)
		}
	}
	for r, n := range perRegion {
		if n == 0 {
			t.Fatalf("region %d owns no test keys; ownership split is broken", r)
		}
	}

	// Phase 2: SIGKILL one node while a background inserter keeps mixed
	// traffic flowing through the kill. Only acked inserts carry a
	// durability promise; errors during the transition are tolerated.
	const victim = 1
	victimRegion := regionOf[peerAddrs[victim]]
	var mu sync.Mutex
	var ackedDuring []string
	stop := make(chan struct{})
	insDone := make(chan struct{})
	go func() {
		defer close(insDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("repl-live-%d", i)
			if _, err := cc.Insert(cluster.OriginAuto, discovery.NewID(name), []byte(name)); err == nil {
				mu.Lock()
				ackedDuring = append(ackedDuring, name)
				mu.Unlock()
			}
		}
	}()
	time.Sleep(100 * time.Millisecond)
	if err := procs[victim].cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	procs[victim].cmd.Wait() //nolint:errcheck // killed on purpose
	time.Sleep(300 * time.Millisecond)
	close(stop)
	<-insDone
	t.Logf("killed node %d (region %d) under traffic; %d inserts acked around the kill", victim, victimRegion, len(ackedDuring))

	// Every settled pre-kill key stays readable: the client fails over
	// from the dead owner to a live replica.
	deadOwned := 0
	for _, name := range keys {
		found, err := lookupSmartRetry(cc, discovery.NewID(name))
		if err != nil {
			t.Fatalf("lookup %s with node %d dead: %v", name, victim, err)
		}
		if !found {
			t.Fatalf("settled key %s unreadable with one replica dead", name)
		}
		if ownerRegion(name) == victimRegion {
			deadOwned++
		}
	}
	if deadOwned == 0 {
		t.Fatal("no dead-owner keys exercised")
	}
	if fo := cc.Stats().Failovers; fo == 0 {
		t.Fatal("client reports zero failovers despite a dead owner in the read path")
	}

	// Quorum writes keep landing for every region — including the dead
	// node's — and are immediately readable through their coordinator.
	newKeys := make([]string, 0, 45)
	perRegionNew := make([]int, 3)
	for i := 0; len(newKeys) < 45; i++ {
		name := fmt.Sprintf("repl-postkill-%d", i)
		if _, err := cc.Insert(cluster.OriginAuto, discovery.NewID(name), []byte(name)); err != nil {
			t.Fatalf("quorum insert %s with node %d dead: %v", name, victim, err)
		}
		res, err := cc.Lookup(cluster.OriginAuto, discovery.NewID(name))
		if err != nil {
			t.Fatalf("read-back %s with node %d dead: %v", name, victim, err)
		}
		if !res.Found {
			t.Fatalf("quorum-acked insert %s not visible with node %d dead", name, victim)
		}
		newKeys = append(newKeys, name)
		perRegionNew[ownerRegion(name)]++
	}
	for r, n := range perRegionNew {
		if n == 0 {
			t.Fatalf("no post-kill writes landed in region %d", r)
		}
	}
	keys = append(keys, newKeys...)

	// A cluster-unaware client on a survivor answers dead-region reads
	// locally: with one node down the quorum was both survivors, so
	// every post-kill key is on this node deterministically.
	pc, err := server.Dial(procs[(victim+1)%3].clientAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	for _, name := range newKeys {
		if ownerRegion(name) != victimRegion {
			continue
		}
		res, err := pc.Lookup(server.OriginAuto, discovery.NewID(name))
		if err != nil {
			t.Fatalf("plain-client lookup %s via survivor: %v", name, err)
		}
		if !res.Found {
			t.Fatalf("post-kill key %s missing from survivor replica", name)
		}
	}

	// Phase 3: restart the victim on its data directory. WAL recovery
	// restores what it committed; anti-entropy pulls every region it
	// replicates, catching up on everything acked while it was dead.
	procs[victim] = startNode(t, bin, peerAddrs[victim], peerAddrs, dirs[victim])
	waitMemberSlot(t, cc, victimRegion, procs[victim].clientAddr)

	mu.Lock()
	keys = append(keys, ackedDuring...)
	mu.Unlock()

	// Zero acked-insert loss, proven on the restarted node itself: it
	// replicates every region, so after convergence a local answer must
	// find every key ever acked.
	vc, err := server.Dial(procs[victim].clientAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer vc.Close()
	deadline := time.Now().Add(45 * time.Second)
	for _, name := range keys {
		for {
			res, err := vc.Lookup(server.OriginAuto, discovery.NewID(name))
			if err == nil && res.Found {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("acked insert %s not on the restarted node after the convergence window (last err %v)", name, err)
			}
			time.Sleep(200 * time.Millisecond)
		}
	}
	// And through the owner route from the smart client.
	for _, name := range keys {
		found, err := lookupSmartRetry(cc, discovery.NewID(name))
		if err != nil {
			t.Fatalf("post-restart lookup %s: %v", name, err)
		}
		if !found {
			t.Fatalf("acked insert %s lost after restart", name)
		}
	}
	t.Logf("verified %d acked inserts after SIGKILL, failover, and recovery (failovers: %d)", len(keys), cc.Stats().Failovers)

	// The cluster drains cleanly on SIGTERM with replication active.
	for i, p := range procs {
		if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := p.cmd.Wait(); err != nil {
			t.Fatalf("node %d exit after SIGTERM: %v", i, err)
		}
	}
}
