// Package p2p is the node-to-node transport that turns the discovery
// pool into a multi-process cluster: separate OS processes, each owning
// one contiguous region of the 160-bit keyspace, exchanging internal/wire
// peer frames (route, probe, repair, replica-transfer) over TCP.
//
// # Model
//
// Membership is static per process lifetime and derived identically on
// every node: the sorted, deduplicated set of peer addresses from the
// bootstrap list (plus the node's own advertised address). A node's
// cluster index is its address's rank in that ordering, and the index is
// also its keyspace region (discovery.OwnerOf): nodes that agree on the
// member list agree on every key's owner with no coordination protocol.
//
// A client may talk to any node. Requests for keys the node owns execute
// on its local pool; everything else is wrapped in a TRoute frame
// and relayed to the owner over a multiplexed peer connection, with the
// owner's reply relayed back byte-for-byte. There is exactly one routing
// hop — every node knows the full member list — so there are no forward
// loops to suppress beyond the owner check on the receiving side.
//
// Each key lives on R consecutive regions (discovery.ReplicasOf; R is
// the cluster's replication factor, 1 = unreplicated). Mutations are
// coordinated by whichever replica receives them: it executes locally,
// fans the mutation to its co-replicas as TReplicate frames, and acks
// once a quorum (⌈(R+1)/2⌉) of replicas — itself included — has
// committed. Reads are served by any live replica: a node routing to a
// dead peer fails over to the key's next replica in rank order, and only
// when every replica is unreachable does the request fail fast with an
// error (never a silent drop or a bogus not-found ack) while every other
// region keeps serving. With R=1 this degrades to the original
// all-or-nothing-per-region behavior.
//
// Forwarded writes are at-least-once, not at-most-once: a routed request
// that times out may still have been applied by the owner (the reply was
// just late), so a client that retries after an error may re-execute the
// write. The store makes this benign — re-inserting a key overwrites its
// one entry — but counters and stats on the owner count both executions.
package p2p

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	discovery "discovery"
	"discovery/internal/idspace"
)

// Cluster is the static membership view: every peer address, sorted,
// this node's position among them, and the replication factor every
// member must agree on. The same bootstrap set and replication yield the
// same Cluster on every member.
type Cluster struct {
	addrs []string
	self  int
	repl  int
	hash  uint64
}

// NewCluster derives membership from this node's advertised address and
// the bootstrap list (which may or may not include self; both spellings
// work). Addresses are compared as strings, so every member must be
// configured with the identical spelling of each address. replication is
// how many consecutive regions hold each key, clamped to [1, member
// count]; it is mixed into the membership fingerprint, so nodes
// configured with different replication factors refuse each other.
func NewCluster(self string, bootstrap []string, replication int) (*Cluster, error) {
	if self == "" {
		return nil, fmt.Errorf("p2p: self address is empty")
	}
	set := map[string]bool{self: true}
	for _, a := range bootstrap {
		if a != "" {
			set[a] = true
		}
	}
	addrs := make([]string, 0, len(set))
	for a := range set {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	if replication < 1 {
		replication = 1
	}
	if replication > len(addrs) {
		replication = len(addrs)
	}
	c := &Cluster{addrs: addrs, self: sort.SearchStrings(addrs, self), repl: replication}
	c.hash = fingerprint(addrs, replication)
	return c, nil
}

// fingerprint hashes the ordered member list and the replication factor
// with FNV-1a. Probes carry it so nodes configured with different member
// lists (or replication factors) refuse to serve each other instead of
// silently disagreeing about key placement. Replication 1 hashes exactly
// like the pre-replication fingerprint, so unreplicated clusters keep
// their wire identity across upgrades.
func fingerprint(addrs []string, replication int) uint64 {
	h := fnv.New64a()
	for _, a := range addrs {
		h.Write([]byte(a))    //nolint:errcheck // hash.Hash never errors
		h.Write([]byte{'\n'}) //nolint:errcheck
	}
	if replication > 1 {
		var rb [8]byte
		binary.BigEndian.PutUint64(rb[:], uint64(replication))
		h.Write([]byte("replication\n")) //nolint:errcheck
		h.Write(rb[:])                   //nolint:errcheck
	}
	return h.Sum64()
}

// N returns the member count.
func (c *Cluster) N() int { return len(c.addrs) }

// Self returns this node's cluster index (= its keyspace region).
func (c *Cluster) Self() int { return c.self }

// Addr returns member i's peer address.
func (c *Cluster) Addr(i int) string { return c.addrs[i] }

// Addrs returns a copy of the ordered member list.
func (c *Cluster) Addrs() []string { return append([]string(nil), c.addrs...) }

// Hash returns the membership fingerprint carried by probes.
func (c *Cluster) Hash() uint64 { return c.hash }

// R returns the replication factor: how many consecutive regions hold
// each key (1 = unreplicated).
func (c *Cluster) R() int { return c.repl }

// Quorum returns how many replica commits a mutation needs before it is
// acked: ⌈(R+1)/2⌉, a majority that also covers R=1 (quorum 1) and R=2
// (quorum 2, both replicas).
func (c *Cluster) Quorum() int { return (c.repl + 2) / 2 }

// OwnerOf returns the cluster index owning key: the first of its
// replicas and the coordinator of choice while it is alive.
func (c *Cluster) OwnerOf(key idspace.ID) int {
	return discovery.OwnerOf(key, len(c.addrs))
}

// ReplicasOf returns the cluster indices holding key, owner first, in
// failover rank order.
func (c *Cluster) ReplicasOf(key idspace.ID) []int {
	return discovery.ReplicasOf(key, len(c.addrs), c.repl)
}

// Owns reports whether this node is one of key's replicas (with
// replication 1: whether it is key's owner).
func (c *Cluster) Owns(key idspace.ID) bool {
	return discovery.Replicates(key, c.self, len(c.addrs), c.repl)
}

// ReplicatedRegions returns the region indices whose keys this node
// holds: its own region plus the R-1 regions preceding it (their
// replica sets extend forward over this node), in ascending wrap order
// ending at Self. With replication 1 it is just [Self].
func (c *Cluster) ReplicatedRegions() []int {
	n := len(c.addrs)
	out := make([]int, 0, c.repl)
	for i := c.repl - 1; i >= 0; i-- {
		out = append(out, ((c.self-i)%n+n)%n)
	}
	return out
}
