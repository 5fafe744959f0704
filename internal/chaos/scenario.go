// Package chaos is the fault-matrix harness: it boots an N-member
// cluster of internal/node members in the test process, with every peer
// and client link interposed by an internal/faultnet proxy, expresses
// fault scenarios as data (Scenario/Fault), drives
// live traffic through the cluster-smart client while the faults are
// active, and asserts the same four invariants across every cell of
// the matrix:
//
//  1. Acked-insert durability — every insert the client saw acked is
//     found on every replica after heal.
//  2. No false not-found — a lookup of a settled (fully converged) key
//     may fail with an explicit error while faults are live, but must
//     never succeed with "not found".
//  3. Explicit below-quorum errors — where a fault severs a region's
//     quorum, writes there return errors; they are never silently
//     dropped (checked jointly with invariant 1: anything acked must
//     survive).
//  4. Convergence after heal — once faults lift, periodic anti-entropy
//     brings every replica of every acked key back in sync, with no
//     restarts beyond those the scenario itself performs.
//
// Adding a scenario is adding a literal to Matrix: the harness knows
// how to apply every Fault kind, and TestChaosMatrix runs each entry as
// its own subtest.
package chaos

import "time"

// Kind enumerates the fault classes the harness can apply. Most target
// one node (Fault.Node) and fault every directed link touching it.
type Kind int

const (
	// Isolate hard-partitions every peer link touching Node, both
	// directions: new connections are reset on accept, live ones are
	// severed. The node's client link stays up, so clients still reach
	// an island that cannot assemble a write quorum.
	Isolate Kind = iota
	// CutClient partitions only Node's client link, forcing the
	// cluster-smart client to fail over to other replicas.
	CutClient
	// AsymmetricOut blackholes the request direction of Node's outbound
	// peer links: its calls vanish mid-flight (timeouts), while inbound
	// traffic — including other coordinators' replication fan-out to it
	// — still flows. The classic one-way partition.
	AsymmetricOut
	// Latency adds Fault.Latency ± Fault.Jitter per forwarded chunk on
	// every peer link touching Node, both directions.
	Latency
	// Bandwidth caps every peer link touching Node to Fault.Bps via a
	// token bucket.
	Bandwidth
	// Reorder swaps adjacent flush-boundary chunks with Fault.Prob on
	// every peer link touching Node. Because the peer protocol is a
	// length-prefixed TCP stream, a swap usually corrupts framing and
	// tears the connection down — exercising decode-error handling,
	// redial, and coordinator failover rather than silent reordering.
	Reorder
	// ResetStorm RSTs every live peer connection in the cluster every
	// Fault.Every, without refusing redials: mid-stream resets with
	// instant reconnect.
	ResetStorm
	// Flap drives Node on/off with an internal/perturb flapping
	// schedule (Fault.Idle / Fault.Offline cycles): offline = Isolate +
	// CutClient, online = heal. The fault window extends until at least
	// Fault.MinFlaps transitions have happened.
	Flap
	// RollingRestart closes and restarts every node on its data
	// directory in turn, one at a time, while traffic runs.
	RollingRestart
	// FsyncFail arms permanent injected fsync failures on Node's WAL
	// append path (its node.Config.WALSyncErr hook): the log poisons
	// itself, mutations on that node error while reads keep serving.
	// Heal restarts the node (fresh recovery, hook disarmed).
	FsyncFail
)

// Fault is one fault to apply for the scenario's fault window. Which
// fields matter depends on Kind; zero values select nothing.
type Fault struct {
	Kind     Kind
	Node     int           // target node (region index) for node-scoped kinds
	Latency  time.Duration // Latency kind: fixed delay per chunk
	Jitter   time.Duration // Latency kind: uniform extra [0,Jitter)
	Bps      int64         // Bandwidth kind: bytes/second cap
	Prob     float64       // Reorder kind: per-chunk swap probability
	Every    time.Duration // ResetStorm kind: reset period
	Idle     time.Duration // Flap kind: online portion of a cycle
	Offline  time.Duration // Flap kind: offline portion of a cycle
	MinFlaps int           // Flap kind: minimum transitions before heal
}

// Scenario is one cell of the chaos matrix, expressed as data.
type Scenario struct {
	// Name labels the subtest (t.Run) and the key namespace.
	Name string
	// About is one line of intent, logged when the scenario starts.
	About string
	// Short marks the scenario as part of the `go test -short` subset
	// (the PR-gating set); the full matrix runs on push.
	Short bool
	// Window is the minimum fault-phase duration (default 2s). The
	// phase also extends until the traffic driver has attempted a
	// minimum number of inserts, so slow faults still get coverage.
	Window time.Duration
	// Faults all apply together for the window.
	Faults []Fault
	// ExpectWriteErrors asserts that the fault phase produced at least
	// one explicit write error — set on scenarios that sever a quorum,
	// where invariant 3 is observable from the client.
	ExpectWriteErrors bool
	// ExpectFailovers asserts the cluster-smart client's Failovers
	// counter rose during the fault phase.
	ExpectFailovers bool
}

// Matrix is the scenario set TestChaosMatrix runs. The
// Short entries are the PR-gating subset; everything runs on push.
// Fault classes covered: hard partition (island), asymmetric partition,
// latency/jitter, frame reordering, bandwidth cap, connection resets,
// flapping membership, rolling restarts, and fsync failure.
var Matrix = []Scenario{
	{
		Name:  "partition-island",
		About: "node 1 loses every peer link both ways; its client link stays up, so its writes must fail the quorum explicitly while other regions keep serving",
		Short: true,
		Faults: []Fault{
			{Kind: Isolate, Node: 1},
		},
		ExpectWriteErrors: true,
	},
	{
		Name:   "partition-asymmetric",
		About:  "node 2's outbound requests are blackholed while inbound still flows: its coordinated writes time out below quorum, everyone else stays at full quorum",
		Window: 4 * time.Second,
		Faults: []Fault{
			{Kind: AsymmetricOut, Node: 2},
		},
		ExpectWriteErrors: true,
	},
	{
		Name:  "flapping-peer",
		About: "node 1 flaps on a perturb schedule (peer + client links); the smart client must fail over and no acked insert may be lost",
		Short: true,
		Faults: []Fault{
			{Kind: Flap, Node: 1, Idle: 600 * time.Millisecond, Offline: 600 * time.Millisecond, MinFlaps: 4},
		},
		ExpectFailovers: true,
	},
	{
		Name:  "slow-link",
		About: "every peer link touching node 0 gets 25ms±15ms per chunk; quorum writes and anti-entropy must ride it out",
		Short: true,
		Faults: []Fault{
			{Kind: Latency, Node: 0, Latency: 25 * time.Millisecond, Jitter: 15 * time.Millisecond},
		},
	},
	{
		Name:  "reorder-frames",
		About: "adjacent flush-boundary chunks swap on node 2's peer links, corrupting the length-prefixed stream: decode errors, teardowns and redials must not lose acked writes",
		Faults: []Fault{
			{Kind: Reorder, Node: 2, Prob: 0.35},
		},
	},
	{
		Name:  "bandwidth-crunch",
		About: "node 1's peer links are squeezed to 64 KiB/s; replication fan-out and repair pages crawl but must stay correct",
		Faults: []Fault{
			{Kind: Bandwidth, Node: 1, Bps: 64 << 10},
		},
	},
	{
		Name:  "reset-storm",
		About: "every live peer connection is RST every 300ms; calls die mid-flight and redial instantly",
		Faults: []Fault{
			{Kind: ResetStorm, Every: 300 * time.Millisecond},
		},
	},
	{
		Name:  "rolling-restart",
		About: "every node is drained and restarted in turn under live traffic",
		Faults: []Fault{
			{Kind: RollingRestart},
		},
	},
	{
		Name:  "fsync-failure",
		About: "node 1's WAL starts failing every fsync mid-run: its mutations must error (never ack), reads keep serving, and a restart recovers every previously-acked key",
		Short: true,
		Faults: []Fault{
			{Kind: FsyncFail, Node: 1},
		},
		ExpectWriteErrors: true,
	},
}
