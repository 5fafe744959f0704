package p2p

import (
	"sync/atomic"
	"time"

	"discovery/internal/idspace"
	"discovery/internal/mpil"
)

// RemoteOverlay adapts cluster membership to the Overlay a pool is built
// over: overlay node i IS cluster member i, identified by the SHA-1 of
// its peer address, and every member neighbors every other (the member
// list is fully known, so the overlay is complete). A pool routes
// nothing over it; the member count sizes the origin space (client
// origins and Pool.AutoOrigin name members). Every process builds the
// identical overlay from the identical member list.
//
// Online always reports true: remote availability is a transport
// concern, tracked by the separate Alive flags that the transport layer
// maintains and the runtime reports.
type RemoteOverlay struct {
	cluster   *Cluster
	ids       []idspace.ID
	neighbors [][]int
	alive     []atomic.Bool
}

var _ mpil.Overlay = (*RemoteOverlay)(nil)

// NewRemoteOverlay builds the cluster overlay and validates the overlay
// contract (distinct address hashes, in particular).
func NewRemoteOverlay(c *Cluster) (*RemoteOverlay, error) {
	n := c.N()
	ov := &RemoteOverlay{
		cluster:   c,
		ids:       make([]idspace.ID, n),
		neighbors: make([][]int, n),
		alive:     make([]atomic.Bool, n),
	}
	for i := 0; i < n; i++ {
		ov.ids[i] = idspace.FromString(c.Addr(i))
		nbs := make([]int, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				nbs = append(nbs, j)
			}
		}
		ov.neighbors[i] = nbs
		ov.alive[i].Store(true)
	}
	if err := mpil.ValidateOverlay(ov); err != nil {
		return nil, err
	}
	return ov, nil
}

// Cluster returns the membership this overlay was built from.
func (o *RemoteOverlay) Cluster() *Cluster { return o.cluster }

// N returns the member count.
func (o *RemoteOverlay) N() int { return len(o.ids) }

// ID returns member i's identifier (SHA-1 of its peer address).
func (o *RemoteOverlay) ID(i int) idspace.ID { return o.ids[i] }

// Neighbors returns every other member. Callers must not mutate it.
func (o *RemoteOverlay) Neighbors(i int) []int { return o.neighbors[i] }

// Online always reports true — see the type comment.
func (o *RemoteOverlay) Online(int, time.Duration) bool { return true }

// Alive reports the transport-level health of member i, as last set by
// the transport layer. It is advisory (a dead peer is rediscovered by
// the next failed call).
func (o *RemoteOverlay) Alive(i int) bool { return o.alive[i].Load() }

// SetAlive records member i's transport health.
func (o *RemoteOverlay) SetAlive(i int, up bool) { o.alive[i].Store(up) }

// AliveCount returns how many members are currently marked healthy.
func (o *RemoteOverlay) AliveCount() int {
	n := 0
	for i := range o.alive {
		if o.alive[i].Load() {
			n++
		}
	}
	return n
}
