package discovery

import (
	"fmt"
	"math/rand"

	"discovery/internal/idspace"
	"discovery/internal/metrics"
	"discovery/internal/mpil"
)

// InsertResult reports what one insertion did: replicas stored, messages
// spent, flows created, duplicates seen, and copies lost to offline nodes.
type InsertResult = mpil.InsertStats

// LookupResult reports a lookup's outcome: whether a replica was found,
// the hop count of the first reply, traffic, flows, and drops.
type LookupResult = mpil.LookupStats

// Service is the discovery service: MPIL insert/lookup/delete over a
// caller-provided overlay. It is deterministic per seed and not safe for
// concurrent use; create one Service per goroutine (they may share an
// Overlay, which Service never mutates).
type Service struct {
	eng *mpil.Engine
}

// config collects option state before validation.
type config struct {
	digitBits            int
	maxFlows             int
	perFlowReplicas      int
	duplicateSuppression bool
	maxHops              int
	seed                 int64
	regionIndex          int
	regionCount          int
	replication          int
	metrics              *metrics.Registry
}

// WithMetrics registers the pool's per-shard operation counters in reg
// (under pool.ops{op=...,shard=...} and friends) instead of a private
// registry, so a process-wide registry — the daemon's /metrics endpoint
// — sees them. Pool.Stats reads the same counters either way; the wire
// TStatsOK reply and the exposition endpoint can never disagree.
func WithMetrics(reg *metrics.Registry) Option {
	return func(c *config) { c.metrics = reg }
}

// Option customizes a Service.
type Option func(*config)

// WithMaxFlows sets the flow quota each request carries (paper
// "max_flows"; default 10). Higher values buy robustness with traffic.
func WithMaxFlows(n int) Option { return func(c *config) { c.maxFlows = n } }

// WithPerFlowReplicas sets how many replicas each insertion flow stores
// and how many local maxima a lookup flow may pass (paper "num_replicas";
// default 5).
func WithPerFlowReplicas(n int) Option { return func(c *config) { c.perFlowReplicas = n } }

// WithDuplicateSuppression makes nodes silently discard request copies
// they have already seen. It saves traffic on stable overlays and costs
// robustness on changing ones (paper Section 6.2). Default off.
func WithDuplicateSuppression(on bool) Option {
	return func(c *config) { c.duplicateSuppression = on }
}

// WithDigitBits sets the routing metric's digit width in bits (1, 2, 4 or
// 8; default 4). Smaller digits produce more metric ties and therefore
// more redundant flows.
func WithDigitBits(b int) Option { return func(c *config) { c.digitBits = b } }

// WithMaxHops bounds any single flow's path length (default: node count).
func WithMaxHops(n int) Option { return func(c *config) { c.maxHops = n } }

// WithSeed fixes the tie-sampling RNG seed (default 1).
func WithSeed(seed int64) Option { return func(c *config) { c.seed = seed } }

// WithRegion declares that this pool owns region index of count
// contiguous keyspace regions (see OwnerOf). Mutations for keys outside
// the region are refused, and durable pools pin the region in their
// MANIFEST so a data directory cannot be recovered into a node that owns
// a different slice of the keyspace. The default (0 of 1) owns
// everything — the single-process deployment.
func WithRegion(index, count int) Option {
	return func(c *config) {
		c.regionIndex = index
		c.regionCount = count
	}
}

// WithReplication declares that each keyspace region lives on r of the
// cluster's nodes (see ReplicasOf): the pool accepts mutations for every
// key whose replica set contains its region index, not only keys it
// primarily owns. Durable pools pin r in their MANIFEST alongside the
// region, so a data directory cannot be recovered into a node with a
// different replica-set layout. The default (1) is the unreplicated
// layout: exactly one region accepts each key.
func WithReplication(r int) Option {
	return func(c *config) { c.replication = r }
}

// New builds a Service over the given overlay.
func New(ov Overlay, opts ...Option) (*Service, error) {
	if ov == nil {
		return nil, fmt.Errorf("discovery: nil overlay")
	}
	c := config{
		digitBits:       4,
		maxFlows:        10,
		perFlowReplicas: 5,
		seed:            1,
		regionCount:     1,
		replication:     1,
	}
	for _, opt := range opts {
		opt(&c)
	}
	if err := c.checkPlacement(); err != nil {
		return nil, err
	}
	space, err := idspace.NewSpace(c.digitBits)
	if err != nil {
		return nil, fmt.Errorf("discovery: %w", err)
	}
	eng, err := mpil.NewEngine(ov, mpil.Config{
		Space:                space,
		MaxFlows:             c.maxFlows,
		PerFlowReplicas:      c.perFlowReplicas,
		DuplicateSuppression: c.duplicateSuppression,
		MaxHops:              c.maxHops,
	}, rand.New(rand.NewSource(c.seed)))
	if err != nil {
		return nil, fmt.Errorf("discovery: %w", err)
	}
	return &Service{eng: eng}, nil
}

// checkPlacement validates the region and replication options.
func (c *config) checkPlacement() error {
	if c.regionCount < 1 || c.regionIndex < 0 || c.regionIndex >= c.regionCount {
		return fmt.Errorf("discovery: region %d of %d is not a valid ownership slice", c.regionIndex, c.regionCount)
	}
	if c.replication < 1 || c.replication > c.regionCount {
		return fmt.Errorf("discovery: replication %d is not in [1, %d regions]", c.replication, c.regionCount)
	}
	return nil
}

// Insert publishes an object pointer into the overlay from the given
// origin node. value is the opaque pointer payload (a location URL, a
// host:port, anything).
func (s *Service) Insert(origin int, key ID, value []byte) InsertResult {
	return s.eng.Insert(origin, key, value, 0)
}

// Lookup queries the overlay for key from the given origin node.
func (s *Service) Lookup(origin int, key ID) LookupResult {
	return s.eng.Lookup(origin, key, 0)
}

// Delete removes every replica of key owned by origin from online
// holders, returning how many replicas were removed. Only the inserting
// origin may delete its objects (paper Section 4.4).
func (s *Service) Delete(origin int, key ID) int {
	return s.eng.Delete(origin, key, 0)
}

// Holders returns the nodes currently storing key, ascending. It is a
// global-knowledge inspection helper for tests and tooling, not a routed
// operation.
func (s *Service) Holders(key ID) []int { return s.eng.HoldersOf(key) }

// Value returns the stored payload of key at node i, if present.
func (s *Service) Value(i int, key ID) ([]byte, bool) {
	r, ok := s.eng.Stored(i, key)
	return r.Value, ok
}

// ResetDuplicateState clears every node's seen-message memory. Call it
// between logically distinct phases if duplicate suppression is enabled
// and you re-issue identical workloads.
func (s *Service) ResetDuplicateState() { s.eng.ResetDuplicateState() }
