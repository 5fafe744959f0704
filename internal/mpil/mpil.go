// Package mpil implements MPIL (Multi-Path Insertion/Lookup), the paper's
// primary contribution: a resource location and discovery algorithm that
// is overlay-independent (it routes over arbitrary neighbor lists using
// only a deterministic ID-space metric) and perturbation-resistant (it
// exploits limited redundancy — multiple flows and multiple replicas per
// flow — instead of overlay maintenance).
//
// The routing metric (Section 4.1) is the number of base-2^b digits two
// IDs share in the same positions. A message is forwarded to every
// neighbor tied for the highest metric value, subject to a max_flows quota
// carried in the message and split among next hops (Section 4.3, Figure
// 5). Objects are stored at local maxima — nodes whose own metric value is
// at least that of every neighbor — and each flow stores up to
// num_replicas replicas (Section 4.4).
package mpil

import (
	"fmt"
	"time"

	"discovery/internal/idspace"
)

// Overlay is the neighbor-list view MPIL routes over. Any graph works:
// MPIL never asks for structure beyond "who are node i's neighbors".
// Neighbor lists may be asymmetric (as they are when MPIL runs over a
// structured overlay's routing state, Section 6.2).
type Overlay interface {
	// N returns the number of nodes, indexed 0..N-1.
	N() int
	// ID returns node i's 160-bit identifier. A node's ID is fixed for
	// the overlay's life: NewEngine decodes every ID once and routes on
	// the decoded copy.
	ID(i int) idspace.ID
	// Neighbors returns node i's neighbor list. The engine treats the
	// returned slice as read-only.
	Neighbors(i int) []int
	// Online reports whether node i is responsive at virtual time at.
	Online(i int, at time.Duration) bool
}

// ValidateOverlay checks the structural contract Engine assumes of an
// Overlay: at least one node, unique IDs, in-range neighbor indices, and
// no self-loops. The engine trusts its overlay on the hot path, so
// adapters built from external state — a cluster member list
// (internal/p2p), another protocol's routing tables — should validate
// once at construction.
func ValidateOverlay(ov Overlay) error {
	n := ov.N()
	if n == 0 {
		return fmt.Errorf("mpil: overlay has no nodes")
	}
	seen := make(map[idspace.ID]int, n)
	for i := 0; i < n; i++ {
		id := ov.ID(i)
		if j, dup := seen[id]; dup {
			return fmt.Errorf("mpil: nodes %d and %d share ID %v", j, i, id)
		}
		seen[id] = i
		for _, nb := range ov.Neighbors(i) {
			if nb < 0 || nb >= n {
				return fmt.Errorf("mpil: node %d lists out-of-range neighbor %d (%d nodes)", i, nb, n)
			}
			if nb == i {
				return fmt.Errorf("mpil: node %d lists itself as neighbor", i)
			}
		}
	}
	return nil
}

// Config carries the MPIL parameters from the paper.
type Config struct {
	// Space selects the digit base 2^b of the routing metric. The paper
	// uses a 160-bit space; its examples use base-4 (b=2).
	Space idspace.Space
	// MaxFlows is the flow quota placed in each message by its
	// originator ("max_flows", Section 4.3). The total number of flows a
	// message spawns is bounded by this value.
	MaxFlows int
	// PerFlowReplicas is "num_replicas" (Section 4.4): for insertions,
	// how many replicas each flow stores; for lookups, how many local
	// maxima a flow may pass before giving up.
	PerFlowReplicas int
	// DuplicateSuppression ("DS", Section 6.2): when true a node
	// silently discards any copy of a request it has already received.
	// The paper finds DS saves traffic on static overlays but hurts
	// success under perturbation.
	DuplicateSuppression bool
	// MaxHops bounds any single flow's path length as a safety valve.
	// Zero means the engine's default (the node count).
	MaxHops int
	// QuotaSplit selects how a branching node divides the remaining
	// max_flows quota among next hops. The zero value is the paper's
	// round-robin residue rule.
	QuotaSplit QuotaSplit
	// Metric selects the routing metric. The zero value is the paper's
	// common-digits metric; the alternatives exist to reproduce Section
	// 4.2's distinguishability argument (prefix routing cannot tell
	// arbitrary neighbors apart; XOR closeness never ties, so it cannot
	// branch).
	Metric Metric
}

// Metric enumerates routing metrics for the Section 4.2 ablation.
type Metric int

// Routing metrics.
const (
	// MetricCommonDigits is MPIL's metric: the number of digit
	// positions shared with the key. Ties are common, which is where
	// redundant flows come from.
	MetricCommonDigits Metric = iota
	// MetricSharedPrefix is Pastry-style prefix length. Over arbitrary
	// overlays most neighbors share no prefix with the key at all, so
	// routing stalls early (Section 4.2's argument).
	MetricSharedPrefix
	// MetricXOR is Kademlia-style XOR closeness (top 64 bits). It
	// distinguishes every pair of neighbors, so it essentially never
	// ties and degenerates to single-path routing.
	MetricXOR
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case MetricCommonDigits:
		return "common-digits"
	case MetricSharedPrefix:
		return "shared-prefix"
	case MetricXOR:
		return "xor"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// QuotaSplit enumerates quota-division rules, ablated by
// experiments.RunAblations.
type QuotaSplit int

// Quota-division rules.
const (
	// QuotaSplitRoundRobin is the paper's rule (Section 4.3): each of
	// the m next hops gets total/m, and the residue is handed out one
	// unit at a time round-robin.
	QuotaSplitRoundRobin QuotaSplit = iota
	// QuotaSplitEqual is the naive ablation: each next hop gets total/m
	// and the residue is discarded, wasting up to m-1 units of quota at
	// every branch.
	QuotaSplitEqual
)

// Validate reports the first configuration error, if any.
func (c Config) Validate() error {
	if c.Space.B() == 0 {
		return fmt.Errorf("mpil: config Space is unset; use idspace.NewSpace")
	}
	if c.MaxFlows < 1 {
		return fmt.Errorf("mpil: MaxFlows = %d, must be at least 1", c.MaxFlows)
	}
	if c.PerFlowReplicas < 1 {
		return fmt.Errorf("mpil: PerFlowReplicas = %d, must be at least 1", c.PerFlowReplicas)
	}
	if c.MaxHops < 0 {
		return fmt.Errorf("mpil: MaxHops = %d, must be non-negative", c.MaxHops)
	}
	return nil
}

// DefaultConfig returns the configuration the paper uses for its MSPastry
// comparison: base-16 digits, 10 maximum flows, 5 per-flow replicas, no
// duplicate suppression.
func DefaultConfig() Config {
	return Config{
		Space:           idspace.MustSpace(4),
		MaxFlows:        10,
		PerFlowReplicas: 5,
	}
}

// Kind distinguishes the message types of Section 4.4.
type Kind int

// Message kinds. Deletion is not routed (Section 4.4 sends explicit
// deletes directly to replica holders), so only insert and lookup appear
// here.
const (
	KindInsert Kind = iota + 1
	KindLookup
)

// String implements fmt.Stringer for log lines.
func (k Kind) String() string {
	switch k {
	case KindInsert:
		return "insert"
	case KindLookup:
		return "lookup"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Message is an MPIL protocol message. Each forwarded copy owns its Route
// slice; every copy of one request shares one seen set for duplicate
// handling (Section 4.3), which stands in for the request's unique ID.
type Message struct {
	// seen holds the nodes that have received a copy of this request.
	// child copies the map reference, so the set belongs to the request
	// and is garbage once its last copy is.
	seen map[int]struct{}
	Kind Kind
	Key  idspace.ID
	// Value is the object pointer carried by insertions (nil for
	// lookups).
	Value []byte
	// Origin is the node index of the request originator; replies go
	// directly back to it.
	Origin int
	// MaxFlows is the remaining flow quota (consumed and divided at each
	// branch, Section 4.3).
	MaxFlows int
	// ReplicasLeft is the remaining per-flow replica budget
	// (num_replicas for fresh messages).
	ReplicasLeft int
	// Route lists the nodes this copy has visited, excluding the node
	// currently processing it.
	Route []int
}

// onRoute reports whether node n already appears in the message's route.
func (m *Message) onRoute(n int) bool {
	for _, v := range m.Route {
		if v == n {
			return true
		}
	}
	return false
}

// child clones the message for forwarding from node n with an updated flow
// quota, appending n to the route. The route slice is copied because
// sibling forwards must not share backing arrays.
func (m *Message) child(n, maxFlows int) *Message {
	route := make([]int, len(m.Route)+1)
	copy(route, m.Route)
	route[len(m.Route)] = n
	c := *m
	c.MaxFlows = maxFlows
	c.Route = route
	return &c
}

// Replica is one stored copy of an object pointer.
type Replica struct {
	Key   idspace.ID
	Value []byte
	// Origin is the node that inserted the object, the target of replica
	// heartbeats (Section 4.4).
	Origin int
}

// InsertStats reports what one insertion did.
type InsertStats struct {
	// Replicas is the number of stores performed (bounded above by
	// MaxFlows * PerFlowReplicas, Section 4.4).
	Replicas int
	// Messages is the insertion traffic: one count per message sent to a
	// single neighbor.
	Messages int
	// Duplicates is how many times some node received this insertion
	// more than once.
	Duplicates int
	// Flows is the actual number of flows created (1 + one per
	// additional branch).
	Flows int
	// Dropped counts copies lost to offline nodes (always 0 in static
	// runs).
	Dropped int
}

// LookupStats reports what one lookup did.
type LookupStats struct {
	// Found is true if at least one replica holder was reached.
	Found bool
	// FirstReplyHops is the forward-path hop count of the earliest
	// successful reply (the paper's Figure 10 latency metric); -1 when
	// not found.
	FirstReplyHops int
	// Replies is the total number of successful replies generated.
	Replies int
	// Messages is the lookup forwarding traffic.
	Messages int
	// Duplicates is how many times some node received this lookup
	// more than once.
	Duplicates int
	// Flows is the actual number of flows created.
	Flows int
	// Dropped counts copies lost to offline nodes (always 0 in static
	// runs).
	Dropped int
}
