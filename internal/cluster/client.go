// Package cluster is the cluster-smart client: it learns the member
// list and region split from any node, computes each key's owner
// locally, and sends every request directly to the owning node — one
// network hop, no server-side relay on the hot path.
//
// # Protocol
//
// On dial the client asks a seed for the membership table (TMembers →
// TMembersOK): the ordered client-serving addresses of every member
// plus the membership fingerprint. Ownership is a pure function of the
// ordered member list (discovery.OwnerOf), so client and cluster agree
// on every key's owner as long as their views match — and the
// fingerprint is how a mismatch is caught. Every routed request carries
// the client's fingerprint in a TRoute envelope; a node whose view
// disagrees refuses with TWrongView instead of executing, the client
// re-fetches the table and retries once against the newly computed
// owner. A stale client can therefore never execute a write on the
// wrong region: the fingerprint check runs before the request does.
//
// Members whose client address is not (yet) known — the table learns
// addresses from probe gossip, so a freshly started cluster may have
// gaps — are reached through the relay fallback: the plain un-enveloped
// request goes to the anchor node, which forwards it over the peer
// transport exactly like any cluster-unaware client's request.
//
// # Failover
//
// The member table also carries the cluster's replication factor, so
// the client knows every replica of a key, not just its owner. A
// connection-level failure against one replica — dial refused, the
// connection dropped, the call timed out — fails over to the key's next
// replica in rank order; any replica coordinates reads and quorum
// writes. A served response, including TError, is authoritative and is
// never retried elsewhere. A timed-out write may have been applied
// before the failover re-executes it (at-least-once, as with any
// retry); MPIL replica placement makes the re-execution benign.
//
// # Connections
//
// The client keeps one pipelined connection per node on the peer
// transport's own connection engine (internal/rpc): lazily dialed, one
// dial in flight per node however many callers are waiting, requests
// multiplexed by reqID and coalesced into vectored writes, replies
// delivered by the connection's reader, lost replies reported by one
// sweeper between one and one and a quarter call timeouts after the
// send. A dial that timed out makes further calls to that node fail fast
// for a short window (so failover is immediate); a refused dial does
// not, so a restarted node is reachable at once. The Client is safe for
// concurrent use; goroutines pipeline onto the shared per-node
// connections.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	discovery "discovery"
	"discovery/internal/idspace"
	"discovery/internal/metrics"
	"discovery/internal/rpc"
	"discovery/internal/wire"
)

// Config parameterizes a Client.
type Config struct {
	// Seeds are client-serving addresses of cluster nodes, any of which
	// can bootstrap the member table. Required (at least one).
	Seeds []string
	// DialTimeout bounds one node dial (default 500ms).
	DialTimeout time.Duration
	// CallTimeout bounds one request round trip (default 5s).
	CallTimeout time.Duration
	// Logf, when set, receives connection-level error lines.
	Logf func(format string, args ...any)
	// Metrics, when set, receives the client's cluster.* counters
	// (routed/relayed/refreshes). Nil keeps them in a private registry;
	// Stats reads the same counters either way.
	Metrics *metrics.Registry
}

// OriginAuto, passed as the origin of Insert/Lookup/Delete, lets the
// serving node pick the entry node deterministically from the key.
const OriginAuto = -1

// view is one fetched membership table: the fingerprint, the
// client-serving address per cluster slot ("" = not yet advertised),
// and the cluster's replication factor.
type view struct {
	hash  uint64
	addrs []string
	repl  int
}

// Stats counts how the client's requests traveled.
type Stats struct {
	// Routed requests went directly to the key's first tried replica
	// (one hop).
	Routed uint64
	// Relayed requests fell back to the anchor node because no replica's
	// client address was known; the anchor forwarded them (two hops).
	Relayed uint64
	// Refreshes counts member-table re-fetches forced by TWrongView.
	Refreshes uint64
	// Failovers counts per-replica retries after a connection-level
	// failure (dead node, dropped connection, call timeout).
	Failovers uint64
}

// Client routes requests directly to owning nodes. Safe for concurrent
// use. Create with Dial, stop with Close.
type Client struct {
	logf  func(format string, args ...any)
	seeds []string
	mux   *rpc.Mux // one connection per node address

	mu     sync.Mutex
	view   *view
	anchor string // last address that served the member table

	// Registry-backed counters: Stats and a /metrics scrape of the same
	// registry read the same atomics, so they can never disagree.
	routed    *metrics.Counter
	relayed   *metrics.Counter
	refreshes *metrics.Counter
	failovers *metrics.Counter
}

// Dial bootstraps a Client: it fetches the member table from the first
// reachable seed and is then ready to route.
func Dial(cfg Config) (*Client, error) {
	if len(cfg.Seeds) == 0 {
		return nil, errors.New("cluster: Config.Seeds is required")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	c := &Client{
		logf:      cfg.Logf,
		seeds:     append([]string(nil), cfg.Seeds...),
		mux:       rpc.New(rpc.Config{Name: "cluster", DialTimeout: cfg.DialTimeout, CallTimeout: cfg.CallTimeout, Logf: cfg.Logf}),
		routed:    reg.Counter("cluster.routed"),
		relayed:   reg.Counter("cluster.relayed"),
		refreshes: reg.Counter("cluster.refreshes"),
		failovers: reg.Counter("cluster.failovers"),
	}
	if err := c.Refresh(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// Stats returns how requests traveled so far. The counts are read from
// the client's metrics registry, so they match a concurrent /metrics
// scrape exactly; reads are atomic and safe under live traffic.
func (c *Client) Stats() Stats {
	return Stats{Routed: c.routed.Value(), Relayed: c.relayed.Value(), Refreshes: c.refreshes.Value(), Failovers: c.failovers.Value()}
}

// Members returns the current member table (a copy) and its fingerprint.
func (c *Client) Members() (hash uint64, addrs []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.view == nil {
		return 0, nil
	}
	return c.view.hash, append([]string(nil), c.view.addrs...)
}

// Refresh re-fetches the member table from the anchor, the seeds, and
// every known member address, keeping the first success.
func (c *Client) Refresh() error {
	c.mu.Lock()
	candidates := make([]string, 0, 8)
	seen := map[string]bool{}
	add := func(a string) {
		if a != "" && !seen[a] {
			seen[a] = true
			candidates = append(candidates, a)
		}
	}
	add(c.anchor)
	for _, a := range c.seeds {
		add(a)
	}
	if c.view != nil {
		for _, a := range c.view.addrs {
			add(a)
		}
	}
	c.mu.Unlock()

	var errs []error
	for _, addr := range candidates {
		resp, err := c.call(addr, &wire.Msg{Type: wire.TMembers})
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if resp.Type != wire.TMembersOK {
			errs = append(errs, fmt.Errorf("cluster: %s: %s", addr, resp.ErrorText()))
			continue
		}
		repl := int(resp.Replication)
		if repl < 1 {
			// Pre-replication servers omit the field; a zero factor means
			// an unreplicated cluster either way.
			repl = 1
		}
		v := &view{hash: resp.Cluster, addrs: append([]string(nil), resp.Members...), repl: repl}
		if len(v.addrs) == 0 {
			errs = append(errs, fmt.Errorf("cluster: %s advertised an empty member table", addr))
			continue
		}
		c.mu.Lock()
		c.view = v
		c.anchor = addr
		c.mu.Unlock()
		return nil
	}
	return fmt.Errorf("cluster: no seed served a member table: %v", errors.Join(errs...))
}

// wireOrigin translates the public origin convention (-1 = server
// picks) into the wire sentinel.
func wireOrigin(origin int) uint32 {
	if origin < 0 {
		return wire.OriginAuto
	}
	return uint32(origin)
}

// Insert publishes key with the given payload on the owning node.
// origin may be OriginAuto.
func (c *Client) Insert(origin int, key idspace.ID, value []byte) (wire.InsertReply, error) {
	return c.InsertTraced(origin, key, value, 0)
}

// InsertTraced is Insert with an explicit trace ID (0 = untraced): the
// ID rides the TRoute trailer, so the serving node records spans under
// it and /debug/traces joins them with the caller's measurements.
func (c *Client) InsertTraced(origin int, key idspace.ID, value []byte, trc uint64) (wire.InsertReply, error) {
	resp, err := c.do(wire.TInsert, key, wireOrigin(origin), value, wire.TInsertOK, trc)
	if err != nil {
		return wire.InsertReply{}, err
	}
	return resp.Insert, nil
}

// Lookup queries key on the owning node. origin may be OriginAuto.
func (c *Client) Lookup(origin int, key idspace.ID) (wire.LookupReply, error) {
	return c.LookupTraced(origin, key, 0)
}

// LookupTraced is Lookup with an explicit trace ID (0 = untraced).
func (c *Client) LookupTraced(origin int, key idspace.ID, trc uint64) (wire.LookupReply, error) {
	resp, err := c.do(wire.TLookup, key, wireOrigin(origin), nil, wire.TLookupOK, trc)
	if err != nil {
		return wire.LookupReply{}, err
	}
	return resp.Lookup, nil
}

// Delete removes origin's replicas of key on the owning node, returning
// how many were removed.
func (c *Client) Delete(origin int, key idspace.ID) (int, error) {
	return c.DeleteTraced(origin, key, 0)
}

// DeleteTraced is Delete with an explicit trace ID (0 = untraced).
func (c *Client) DeleteTraced(origin int, key idspace.ID, trc uint64) (int, error) {
	resp, err := c.do(wire.TDelete, key, wireOrigin(origin), nil, wire.TDeleteOK, trc)
	if err != nil {
		return 0, err
	}
	return int(resp.Deleted), nil
}

// do routes one request: replicas computed locally from the current
// view and tried in failover rank order (or plain relay through the
// anchor when no replica's address is known), one refresh-and-retry on
// TWrongView. trc, when nonzero, is stamped on the TRoute trailer —
// including failover and post-refresh retries, so one trace ID covers
// the whole detour.
func (c *Client) do(typ wire.Type, key idspace.ID, origin uint32, value []byte, want wire.Type, trc uint64) (*wire.Msg, error) {
	for attempt := 0; ; attempt++ {
		c.mu.Lock()
		v := c.view
		anchor := c.anchor
		c.mu.Unlock()
		if v == nil {
			return nil, errors.New("cluster: no member table (closed?)")
		}

		// Walk the key's replicas in rank order, skipping members whose
		// client address is unknown. A connection-level failure moves to
		// the next replica — any replica coordinates — while a served
		// response, including TError, is authoritative and ends the walk.
		var resp *wire.Msg
		var addr string
		var lastErr error
		tried := 0
		for _, r := range discovery.ReplicasOf(key, len(v.addrs), v.repl) {
			raddr := v.addrs[r]
			if raddr == "" {
				continue
			}
			req := &wire.Msg{Type: wire.TRoute, RouteKind: typ, Cluster: v.hash, Key: key, Origin: origin, Value: value}
			if trc != 0 {
				req.Traced = true
				req.Trace = trc
			}
			if tried == 0 {
				c.routed.Inc()
			} else {
				c.failovers.Inc()
				c.logf("cluster: %v failing over to %s: %v", typ, raddr, lastErr)
			}
			tried++
			m, err := c.call(raddr, req)
			if err != nil {
				lastErr = err
				continue
			}
			resp = m
			addr = raddr
			break
		}
		switch {
		case resp != nil:
		case tried > 0:
			return nil, fmt.Errorf("cluster: all %d reachable replicas failed, last: %w", tried, lastErr)
		default:
			// No replica address known yet: relay the plain request
			// through the anchor, which forwards it over the peer
			// transport (with the server side's own replica failover).
			// Correct, just two hops instead of one.
			req := &wire.Msg{Type: typ, Key: key, Origin: origin, Value: value}
			c.relayed.Inc()
			m, err := c.call(anchor, req)
			if err != nil {
				return nil, err
			}
			resp = m
			addr = anchor
		}
		switch resp.Type {
		case want:
			return resp, nil
		case wire.TWrongView:
			// The node refused under a different membership fingerprint:
			// this view is stale (or the node's is — a refresh resolves
			// either way). Re-fetch and re-route once; a second refusal
			// means the cluster is reconfiguring faster than we can learn.
			if attempt >= 1 {
				return nil, fmt.Errorf("cluster: %s still refuses after refresh (its view %016x)", addr, resp.Cluster)
			}
			c.refreshes.Inc()
			if rerr := c.Refresh(); rerr != nil {
				return nil, fmt.Errorf("cluster: view rejected by %s and refresh failed: %w", addr, rerr)
			}
			continue
		case wire.TError:
			return nil, fmt.Errorf("cluster: %s: %s", addr, resp.ErrorText())
		default:
			return nil, fmt.Errorf("cluster: %s: response type %v, want %v", addr, resp.Type, want)
		}
	}
}

// call sends m to the node at addr and waits for its response.
func (c *Client) call(addr string, m *wire.Msg) (*wire.Msg, error) {
	return c.mux.Conn(addr, addr, nil).Call(m)
}

// Close severs every node connection and fails in-flight and future
// calls.
func (c *Client) Close() { c.mux.Close() }
