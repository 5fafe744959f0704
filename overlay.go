package discovery

import (
	"fmt"
	"math/rand"
	"time"

	"discovery/internal/mpil"
	"discovery/internal/topology"
)

// Overlay is the view of the network a Service routes over: a node count,
// an ID per node, a neighbor list per node, and availability. MPIL asks
// nothing else of the overlay — that is the overlay-independence claim.
// Neighbor lists may be asymmetric (e.g. when adopting another protocol's
// routing state as the overlay). A node's ID is fixed for the overlay's
// life: New decodes every ID once, so an Overlay must never renumber.
type Overlay = mpil.Overlay

// StaticOverlay is a concrete Overlay backed by explicit adjacency lists
// with manually controllable per-node availability. It satisfies most
// embedding scenarios: hand the library your legacy overlay's neighbor
// lists and start inserting.
type StaticOverlay struct {
	ids       []ID
	neighbors [][]int
	offline   []bool
}

var _ Overlay = (*StaticOverlay)(nil)

// NewStaticOverlay builds an overlay from adjacency lists and explicit
// node IDs. Neighbor indices must be in range and IDs unique; lists are
// copied.
func NewStaticOverlay(neighbors [][]int, ids []ID) (*StaticOverlay, error) {
	n := len(neighbors)
	if len(ids) != n {
		return nil, fmt.Errorf("discovery: %d IDs for %d nodes", len(ids), n)
	}
	seen := make(map[ID]int, n)
	for i, id := range ids {
		if j, dup := seen[id]; dup {
			return nil, fmt.Errorf("discovery: nodes %d and %d share ID %v", j, i, id)
		}
		seen[id] = i
	}
	ov := &StaticOverlay{
		ids:       append([]ID(nil), ids...),
		neighbors: make([][]int, n),
		offline:   make([]bool, n),
	}
	for i, nb := range neighbors {
		for _, v := range nb {
			if v < 0 || v >= n {
				return nil, fmt.Errorf("discovery: node %d lists out-of-range neighbor %d", i, v)
			}
			if v == i {
				return nil, fmt.Errorf("discovery: node %d lists itself as neighbor", i)
			}
		}
		ov.neighbors[i] = append([]int(nil), nb...)
	}
	return ov, nil
}

// NewNamedOverlay builds an overlay from adjacency lists and node names,
// hashing each name into the ID space.
func NewNamedOverlay(neighbors [][]int, names []string) (*StaticOverlay, error) {
	ids := make([]ID, len(names))
	for i, name := range names {
		ids[i] = NewID(name)
	}
	return NewStaticOverlay(neighbors, ids)
}

// N returns the number of nodes.
func (o *StaticOverlay) N() int { return len(o.ids) }

// ID returns node i's identifier.
func (o *StaticOverlay) ID(i int) ID { return o.ids[i] }

// Neighbors returns node i's neighbor list. Callers must not mutate it.
func (o *StaticOverlay) Neighbors(i int) []int { return o.neighbors[i] }

// Online reports node i's availability (time is ignored; availability is
// whatever SetOnline last set).
func (o *StaticOverlay) Online(i int, _ time.Duration) bool { return !o.offline[i] }

// SetOnline marks node i online or offline. Offline nodes silently lose
// every message addressed to them — the paper's perturbation semantics.
func (o *StaticOverlay) SetOnline(i int, online bool) { o.offline[i] = !online }

// OnlineCount returns how many nodes are currently online.
func (o *StaticOverlay) OnlineCount() int {
	n := 0
	for _, off := range o.offline {
		if !off {
			n++
		}
	}
	return n
}

// fromGraph wraps a generated topology with random unique IDs.
func fromGraph(g *topology.Graph, rng *rand.Rand) *StaticOverlay {
	n := g.N()
	ov := &StaticOverlay{
		ids:       make([]ID, n),
		neighbors: make([][]int, n),
		offline:   make([]bool, n),
	}
	seen := make(map[ID]bool, n)
	for i := 0; i < n; i++ {
		for {
			id := RandomID(rng)
			if !seen[id] {
				seen[id] = true
				ov.ids[i] = id
				break
			}
		}
		ov.neighbors[i] = append([]int(nil), g.Neighbors(i)...)
	}
	return ov
}

// RandomOverlay generates a connected random regular overlay: n nodes,
// each with exactly degree neighbors, with random IDs. Deterministic per
// seed.
func RandomOverlay(n, degree int, seed int64) (*StaticOverlay, error) {
	rng := rand.New(rand.NewSource(seed))
	g, err := topology.RandomRegular(n, degree, rng)
	if err != nil {
		return nil, fmt.Errorf("discovery: %w", err)
	}
	return fromGraph(g, rng), nil
}

// PowerLawOverlay generates a connected Internet-like power-law overlay
// (degree exponent 2.2, minimum degree 2) with random IDs. Deterministic
// per seed.
func PowerLawOverlay(n int, seed int64) (*StaticOverlay, error) {
	rng := rand.New(rand.NewSource(seed))
	g, err := topology.PowerLaw(n, 2.2, 2, rng)
	if err != nil {
		return nil, fmt.Errorf("discovery: %w", err)
	}
	return fromGraph(g, rng), nil
}

// CompleteOverlay generates the complete graph on n nodes with random
// IDs. Deterministic per seed.
func CompleteOverlay(n int, seed int64) (*StaticOverlay, error) {
	if n < 1 {
		return nil, fmt.Errorf("discovery: need at least one node, got %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	return fromGraph(topology.Complete(n), rng), nil
}
