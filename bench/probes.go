package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	discovery "discovery"
	"discovery/internal/eventsim"
	"discovery/internal/experiments"
	"discovery/internal/idspace"
	"discovery/internal/metrics"
	"discovery/internal/p2p"
	"discovery/internal/server"
	"discovery/internal/snapshot"
	"discovery/internal/wal"
	"discovery/internal/wire"
)

// The in-process probes time each layer's public functions from
// outside, on requests built exactly like the workload's (same seed,
// key names and value size). They run only in traced runs, each inside
// its own span tree. Counts are sized so a probe takes a few hundred
// milliseconds: long enough for a mean to settle, short enough that all
// of them fit in one run.

// meanNs runs fn n times and returns nanoseconds per call.
func meanNs(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// eachUs runs fn n times and returns the sorted per-call microseconds.
func eachUs(n int, fn func(i int)) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		fn(i)
		out[i] = us(time.Since(t0))
	}
	sort.Float64s(out)
	return out
}

// probeSet is the shared input of the serving probes.
type probeSet struct {
	seed    int64
	mix     Mix
	size    int
	workDir string
	rec     *recorder
	res     *runResult
	scale   float64 // 1 in a real run; tests shrink every count

	// What the server probe subtracts from its round trip, left behind
	// by the wire and pool probes that run before it.
	codecNs      float64 // four codec passes: request and reply, encoded and decoded
	poolLookupNs float64
}

// n scales a probe's iteration count.
func (p *probeSet) n(base int) int { return scaled(base, p.scale) }

func scaled(base int, scale float64) int {
	if n := int(float64(base) * scale); n > 64 {
		return n
	}
	return 64
}

// probe runs fn under a root span named after the layer.
func (p *probeSet) probe(name string, fn func(parent int) error) {
	root := p.rec.begin("probe." + name)
	err := fn(root)
	p.rec.end(root)
	if err != nil {
		p.res.violate("probe %s: %v", name, err)
	}
}

func (p *probeSet) runServingProbes() {
	p.probe("wire", p.wireProbe)
	p.probe("pool", p.poolProbe)
	p.probe("wal", p.walProbe)
	p.probe("durable", p.durableProbe)
	p.probe("snapshot", p.snapshotProbe)
	p.probe("server", p.serverProbe) // after wire and pool: it subtracts their costs
	p.probe("p2p", p.p2pProbe)
}

// framesOf returns the request and reply frames of one op kind as the
// cluster client and a node exchange them.
func (p *probeSet) framesOf(k opKind, i int) (req, rep wire.Msg) {
	key := keyID(p.seed, "w", i)
	req = wire.Msg{Type: wire.TRoute, ReqID: uint64(i + 1), Cluster: 0x4532d4060423bbdd, Key: key, Origin: wire.OriginAuto}
	rep = wire.Msg{ReqID: uint64(i + 1)}
	switch k {
	case opLookup:
		req.RouteKind, rep.Type = wire.TLookup, wire.TLookupOK
		rep.Lookup = wire.LookupReply{Found: true, FirstReplyHops: 1, Replies: 2, Messages: 4, Flows: 2}
	case opInsert, opOverwrite:
		req.RouteKind, rep.Type = wire.TInsert, wire.TInsertOK
		req.Value = valueFor(p.size, key, uint64(i))
		rep.Insert = wire.InsertReply{Replicas: 3, Messages: 4, Flows: 2}
	case opDelete:
		req.RouteKind, rep.Type = wire.TDelete, wire.TDeleteOK
		rep.Deleted = 3
	}
	return req, rep
}

func (p *probeSet) wireProbe(parent int) (err error) {
	n := p.n(20000)
	gen := newMixGen(p.seed, "wire", p.mix, 0, []discovery.ID{{}}, []discovery.ID{{}})
	msgs := make([]wire.Msg, 0, 2*n)
	frames := make([][]byte, 0, 2*n)
	for i := 0; i < n; i++ {
		req, rep := p.framesOf(gen.next().kind, i)
		for _, m := range []wire.Msg{req, rep} {
			f, err := m.Append(nil)
			if err != nil {
				return err
			}
			msgs, frames = append(msgs, m), append(frames, f)
		}
	}
	var buf []byte
	var m wire.Msg
	var encNs, decNs float64
	p.rec.timed(parent, "wire.encode", func() {
		encNs = meanNs(len(msgs), func(i int) { buf, _ = msgs[i].Append(buf[:0]) })
	})
	p.rec.timed(parent, "wire.decode", func() {
		decNs = meanNs(len(frames), func(i int) {
			// A frame is a 4-byte length prefix and the body Decode takes.
			if derr := m.Decode(frames[i][4:]); derr != nil && err == nil {
				err = derr
			}
		})
	})
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := range msgs {
		buf, _ = msgs[i].Append(buf[:0])
		m.Decode(buf[4:]) //nolint:errcheck // the same frames decoded cleanly above
	}
	runtime.ReadMemStats(&ms1)
	p.res.set("wire.encode_ns", encNs)
	p.res.set("wire.decode_ns", decNs)
	p.res.set("wire.allocs_per_frame", float64(ms1.Mallocs-ms0.Mallocs)/float64(len(msgs)))
	// One request crosses the codec four times: request and reply, each
	// encoded once and decoded once; msgs alternates the two, so the
	// per-frame means already average over both.
	p.codecNs = 2 * (encNs + decNs)
	return err
}

// membership builds every member's view of one cluster.
func membership(addrs []string, repl int) ([]*p2p.Cluster, error) {
	sort.Strings(addrs)
	out := make([]*p2p.Cluster, len(addrs))
	for i, a := range addrs {
		var err error
		if out[i], err = p2p.NewCluster(a, addrs, repl); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fixedCluster is a membership for probes that never open a listener.
// The overlay's node ids are hashes of the member addresses, so fixed
// names make the engine's routing — and pool.msgs_per_lookup — repeat
// exactly from run to run.
func fixedCluster(n, repl int) ([]*p2p.Cluster, error) {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("bench-node-%d:7900", i)
	}
	return membership(addrs, repl)
}

// memCluster is a membership on free loopback ports, for probes whose
// nodes really listen.
func memCluster(n, repl int) ([]*p2p.Cluster, error) {
	addrs, err := reserveAddrs(n)
	if err != nil {
		return nil, err
	}
	return membership(addrs, repl)
}

// nodePool builds an in-memory pool the way cmd/discoverynode does for
// member c: over the cluster's RemoteOverlay, two shards, its region, R
// copies.
func nodePool(c *p2p.Cluster) (*discovery.Pool, error) {
	ov, err := p2p.NewRemoteOverlay(c)
	if err != nil {
		return nil, err
	}
	return discovery.NewPool(ov, 2, discovery.WithSeed(1), discovery.WithRegion(c.Self(), c.N()), discovery.WithReplication(c.R()))
}

func (p *probeSet) poolProbe(parent int) (err error) {
	n := p.n(20000)
	cs, err := fixedCluster(3, 3)
	if err != nil {
		return err
	}
	pool, err := nodePool(cs[0])
	if err != nil {
		return err
	}
	keys := make([]discovery.ID, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = keyID(p.seed, "pp", i)
		vals[i] = valueFor(p.size, keys[i], 0)
	}
	one := make([]discovery.BatchOp, 1)
	exec := func(kind discovery.BatchKind, i int) {
		one[0] = discovery.BatchOp{Kind: kind, Origin: pool.AutoOrigin(keys[i]), Key: keys[i], Value: vals[i]}
		pool.ExecBatch(one)
		if one[0].Err != nil && err == nil {
			err = one[0].Err
		}
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var insNs float64
	p.rec.timed(parent, "pool.insert", func() { insNs = meanNs(n, func(i int) { exec(discovery.BatchInsert, i) }) })
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	p.res.set("pool.insert_ns", insNs)
	p.res.set("pool.heap_bytes_per_key", (float64(ms1.HeapAlloc)-float64(ms0.HeapAlloc))/float64(n))

	msgs := 0
	p.rec.timed(parent, "pool.lookup", func() {
		p.poolLookupNs = meanNs(n, func(i int) {
			exec(discovery.BatchLookup, i)
			msgs += one[0].Lookup.Messages
			if !one[0].Lookup.Found && err == nil {
				err = fmt.Errorf("pool lookup of inserted key %d: not found", i)
			}
		})
	})
	p.res.set("pool.lookup_ns", p.poolLookupNs)
	p.res.set("pool.msgs_per_lookup", float64(msgs)/float64(n))

	// One shard's keys, 64 at a time: what a server shard worker hands
	// ExecBatch under pipelined load.
	var shard0 []int
	for i := range keys {
		if pool.ShardOf(keys[i]) == 0 {
			shard0 = append(shard0, i)
		}
	}
	batch := make([]discovery.BatchOp, 64)
	rounds := len(shard0) / 64
	p.rec.timed(parent, "pool.batch64", func() {
		ns := meanNs(rounds, func(r int) {
			for j := range batch {
				k := keys[shard0[r*64+j]]
				batch[j] = discovery.BatchOp{Kind: discovery.BatchLookup, Origin: pool.AutoOrigin(k), Key: k}
			}
			pool.ExecBatch(batch)
		})
		p.res.set("pool.batch64_ns_per_op", ns/64)
	})
	p.rec.timed(parent, "pool.delete", func() {
		p.res.set("pool.delete_ns", meanNs(n, func(i int) { exec(discovery.BatchDelete, i) }))
	})
	return err
}

func dirBytes(dir string) float64 {
	var total int64
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if info, err := e.Info(); err == nil && !e.IsDir() {
			total += info.Size()
		}
	}
	return float64(total)
}

func (p *probeSet) walProbe(parent int) error {
	const payloadLen = 96 // a durable op record for a 64-byte value is 91 bytes
	payload := make([]byte, payloadLen)
	open := func(name string, pol wal.Policy) (*wal.Log, string, error) {
		dir, err := os.MkdirTemp(p.workDir, name)
		if err != nil {
			return nil, "", err
		}
		l, err := wal.Open(dir, wal.Options{Sync: pol})
		return l, dir, err
	}
	l, dir, err := open("wal-batch-", wal.SyncBatch)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	defer l.Close()
	one := [][]byte{payload}
	n1 := p.n(300)
	p.rec.timed(parent, "wal.append1", func() {
		p.res.set("wal.append_ns_per_record", meanNs(n1, func(int) {
			if _, aerr := l.AppendBatch(one); aerr != nil && err == nil {
				err = aerr
			}
		}))
	})
	b64 := make([][]byte, 64)
	for i := range b64 {
		b64[i] = payload
	}
	n64 := p.n(100)
	p.rec.timed(parent, "wal.append64", func() {
		p.res.set("wal.batch64_ns_per_record", meanNs(n64, func(int) {
			if _, aerr := l.AppendBatch(b64); aerr != nil && err == nil {
				err = aerr
			}
		})/64)
	})
	if serr := l.Sync(); serr != nil && err == nil {
		err = serr
	}
	p.res.set("wal.bytes_per_user_byte", dirBytes(dir)/float64((n1+n64*64)*payloadLen))

	// Sync alone: append without fsync, then time the fsync.
	lo, dirOff, oerr := open("wal-off-", wal.SyncOff)
	if oerr != nil {
		return oerr
	}
	defer os.RemoveAll(dirOff)
	defer lo.Close()
	p.rec.timed(parent, "wal.sync", func() {
		syncs := eachUs(p.n(200), func(int) {
			lo.Append(payload) //nolint:errcheck // surfaced by Sync
			if serr := lo.Sync(); serr != nil && err == nil {
				err = serr
			}
		})
		p.res.set("wal.sync_ms_p50", percentile(syncs, 50)/1e3)
	})
	return err
}

func (p *probeSet) durableProbe(parent int) error {
	cs, err := fixedCluster(3, 3)
	if err != nil {
		return err
	}
	ov, err := p2p.NewRemoteOverlay(cs[0])
	if err != nil {
		return err
	}
	opts := []discovery.Option{discovery.WithSeed(1), discovery.WithRegion(0, 3), discovery.WithReplication(3)}
	dir, err := os.MkdirTemp(p.workDir, "durable-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// durable.insert_ns: one acked insert at a time, fsync included.
	dp, _, err := discovery.OpenDurablePool(ov, 2, discovery.DurableConfig{Dir: filepath.Join(dir, "a"), Fsync: discovery.FsyncBatch}, opts...)
	if err != nil {
		return err
	}
	one := make([]discovery.BatchOp, 1)
	p.rec.timed(parent, "durable.insert", func() {
		p.res.set("durable.insert_ns", meanNs(p.n(300), func(i int) {
			k := keyID(p.seed, "d", i)
			one[0] = discovery.BatchOp{Kind: discovery.BatchInsert, Origin: dp.AutoOrigin(k), Key: k, Value: valueFor(p.size, k, 0)}
			dp.ExecBatch(one)
			if one[0].Err != nil && err == nil {
				err = one[0].Err
			}
		}))
	})
	if cerr := dp.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	// durable.recover_records_per_s: a directory holding 50 000 logged
	// records and no snapshot, as a SIGKILLed node leaves it. The log is
	// built without fsync (content, not durability, is what replay
	// reads) and the pool is deliberately not closed: Close would
	// snapshot, and recovery would then read the snapshot instead.
	records := p.n(50000) &^ 1 // split evenly over two shards
	bdir := filepath.Join(dir, "b")
	build, _, err := discovery.OpenDurablePool(ov, 2, discovery.DurableConfig{Dir: bdir, Fsync: discovery.FsyncOff}, opts...)
	if err != nil {
		return err
	}
	batch := make([]discovery.BatchOp, 0, 64)
	for s := 0; s < 2; s++ {
		for i, n := 0, 0; n < records/2; i++ {
			k := keyID(p.seed, "rec", i)
			if build.ShardOf(k) != s {
				continue
			}
			n++
			batch = append(batch, discovery.BatchOp{Kind: discovery.BatchInsert, Origin: build.AutoOrigin(k), Key: k, Value: valueFor(p.size, k, 0)})
			if len(batch) == cap(batch) || n == records/2 {
				build.ExecBatch(batch)
				batch = batch[:0]
			}
		}
	}
	if err := build.Sync(); err != nil {
		return err
	}
	var rec discovery.RecoveryStats
	d := p.rec.timed(parent, "durable.recover", func() {
		var re *discovery.DurablePool
		if re, rec, err = discovery.OpenDurablePool(ov, 2, discovery.DurableConfig{Dir: bdir, Fsync: discovery.FsyncOff}, opts...); err == nil {
			defer re.Close()
		}
	})
	build.Close() //nolint:errcheck // scratch directory, removed below
	if err != nil {
		return err
	}
	if rec.Replayed != records {
		return fmt.Errorf("recovery replayed %d records, want %d", rec.Replayed, records)
	}
	p.res.set("durable.recover_records_per_s", float64(records)/d.Seconds())
	return nil
}

func (p *probeSet) snapshotProbe(parent int) error {
	n := p.n(20000)
	dir, err := os.MkdirTemp(p.workDir, "snap-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	entries := make([]snapshot.Entry, n)
	for i := range entries {
		k := keyID(p.seed, "sn", i)
		entries[i] = snapshot.Entry{Node: uint32(i % 3), Origin: uint32(i % 3), Key: k, Value: valueFor(p.size, k, 0)}
	}
	dw := p.rec.timed(parent, "snapshot.write", func() { err = snapshot.Write(dir, 0, 1, entries) })
	if err != nil {
		return err
	}
	p.res.set("snapshot.write_ms", float64(dw)/1e6)
	var got []snapshot.Entry
	dl := p.rec.timed(parent, "snapshot.load", func() { got, _, err = snapshot.Load(dir, 0) })
	if err != nil {
		return err
	}
	if len(got) != n {
		return fmt.Errorf("snapshot load returned %d entries, want %d", len(got), n)
	}
	p.res.set("snapshot.load_entries_per_s", float64(n)/dl.Seconds())
	return nil
}

func (p *probeSet) serverProbe(parent int) error {
	cs, err := fixedCluster(1, 1)
	if err != nil {
		return err
	}
	pool, err := nodePool(cs[0])
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{Pool: pool, Metrics: metrics.NewRegistry()}) // metered, as the nodes are
	if err != nil {
		return err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	c, err := server.Dial(addr.String())
	if err != nil {
		return err
	}
	defer c.Close()
	keys := p.n(2000)
	ids := make([]discovery.ID, keys)
	for i := range ids {
		ids[i] = keyID(p.seed, "sv", i)
		if _, err := c.Insert(server.OriginAuto, ids[i], valueFor(p.size, ids[i], 0)); err != nil {
			return err
		}
	}
	var rtt []float64
	p.rec.timed(parent, "server.serial", func() {
		rtt = eachUs(p.n(5000), func(i int) {
			if rep, lerr := c.Lookup(server.OriginAuto, ids[i%keys]); (lerr != nil || !rep.Found) && err == nil {
				err = fmt.Errorf("serial lookup %d: found=%v err=%v", i, rep.Found, lerr)
			}
		})
	})
	if err != nil {
		return err
	}
	p50 := percentile(rtt, 50)
	p.res.set("server.rtt_serial_us", p50)
	p.res.set("server.self_us", p50-(p.poolLookupNs+p.codecNs)/1e3)

	// Window of 32 on one connection.
	const window = 32
	total := p.n(60000)
	d := p.rec.timed(parent, "server.pipelined", func() {
		var m wire.Msg
		sent, recvd := 0, 0
		for recvd < total && err == nil {
			for sent < total && sent-recvd < window {
				if _, err = c.Send(&wire.Msg{Type: wire.TLookup, Key: ids[sent%keys], Origin: wire.OriginAuto}); err != nil {
					return
				}
				sent++
			}
			if err = c.Flush(); err != nil {
				return
			}
			// Drain at least half the window before refilling, so sends
			// go out in bursts a real pipelining client would produce.
			for n := 0; n < window/2 && recvd < sent; n++ {
				if err = c.Recv(&m); err != nil {
					return
				}
				recvd++
			}
		}
	})
	if err != nil {
		return err
	}
	p.res.set("server.pipelined_rps", float64(total)/d.Seconds())
	return nil
}

// memNode is one in-process cluster member with no server in front.
type memNode struct {
	c    *p2p.Cluster
	pool *discovery.Pool
	node *p2p.Node
}

func startMemNodes(n, repl int, regioned func(i int) bool) ([]*memNode, func(), error) {
	cs, err := memCluster(n, repl)
	if err != nil {
		return nil, nil, err
	}
	var nodes []*memNode
	stop := func() {
		for _, mn := range nodes {
			mn.node.Close()
		}
	}
	for i, c := range cs {
		ov, err := p2p.NewRemoteOverlay(c)
		if err != nil {
			stop()
			return nil, nil, err
		}
		opts := []discovery.Option{discovery.WithSeed(1), discovery.WithReplication(repl)}
		if regioned(i) {
			opts = append(opts, discovery.WithRegion(c.Self(), c.N()))
		} else {
			opts = []discovery.Option{discovery.WithSeed(1)}
		}
		pool, err := discovery.NewPool(ov, 2, opts...)
		if err != nil {
			stop()
			return nil, nil, err
		}
		node, err := p2p.NewNode(p2p.Config{Cluster: c, Overlay: ov, Pool: pool})
		if err != nil {
			stop()
			return nil, nil, err
		}
		if _, err := node.Start(c.Addr(c.Self())); err != nil {
			node.Close()
			stop()
			return nil, nil, err
		}
		nodes = append(nodes, &memNode{c, pool, node})
	}
	return nodes, stop, nil
}

// keysOwnedBy returns count keys of class whose owner among n regions is
// region.
func keysOwnedBy(seed int64, class string, region, n, count int) []discovery.ID {
	var out []discovery.ID
	for i := 0; len(out) < count; i++ {
		if k := keyID(seed, class, i); discovery.OwnerOf(k, n) == region {
			out = append(out, k)
		}
	}
	return out
}

func (p *probeSet) p2pProbe(parent int) error {
	all := func(int) bool { return true }

	// An R=1 pair: the only shape in which a key is foreign to a node,
	// so the only one that exercises Call-as-route and Forward.
	pair, stopPair, err := startMemNodes(2, 1, all)
	if err != nil {
		return err
	}
	defer stopPair()
	n0 := pair[0]
	tr := n0.node.Transport()
	ids := keysOwnedBy(p.seed, "pc", 1, 2, 512)
	route := func(kind wire.Type, k discovery.ID, v []byte) *wire.Msg {
		return &wire.Msg{Type: wire.TRoute, RouteKind: kind, Cluster: n0.c.Hash(), Key: k, Origin: wire.OriginAuto, Value: v}
	}
	for _, k := range ids {
		if resp, err := tr.Call(1, route(wire.TInsert, k, valueFor(p.size, k, 0))); err != nil || resp.Type != wire.TInsertOK {
			return fmt.Errorf("peer insert: %v %v", resp, err)
		}
	}
	p.rec.timed(parent, "p2p.call", func() {
		rtt := eachUs(p.n(5000), func(i int) {
			if resp, cerr := tr.Call(1, route(wire.TLookup, ids[i%len(ids)], nil)); (cerr != nil || !resp.Lookup.Found) && err == nil {
				err = fmt.Errorf("peer lookup: %v", cerr)
			}
		})
		p.res.set("p2p.call_rtt_us", percentile(rtt, 50))
	})
	if err != nil {
		return err
	}
	p.rec.timed(parent, "p2p.forward", func() {
		rtt := eachUs(p.n(5000), func(i int) {
			done := make(chan *wire.Msg, 1)
			n0.node.Forward(wire.TLookup, ids[i%len(ids)], wire.OriginAuto, nil, 0, func(m *wire.Msg) { done <- m })
			if m := <-done; m.Type != wire.TLookupOK && err == nil {
				err = fmt.Errorf("forward: %v %s", m.Type, m.ErrorText())
			}
		})
		p.res.set("p2p.forward_rtt_us", percentile(rtt, 50))
	})
	if err != nil {
		return err
	}
	const burst = 64
	bursts := p.n(400)
	d := p.rec.timed(parent, "p2p.pipelined", func() {
		for b := 0; b < bursts; b++ {
			var wg sync.WaitGroup
			for g := 0; g < burst; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					tr.Call(1, route(wire.TLookup, ids[g%len(ids)], nil)) //nolint:errcheck // checked serially above
				}(g)
			}
			wg.Wait()
		}
	})
	p.res.set("p2p.call_pipelined_rps", float64(bursts*burst)/d.Seconds())

	// Three in-memory nodes, R=3: fan-out plus quorum wait with no WAL.
	trio, stopTrio, err := startMemNodes(3, 3, all)
	if err != nil {
		return err
	}
	defer stopTrio()
	p.rec.timed(parent, "p2p.replicate", func() {
		rtt := eachUs(p.n(5000), func(i int) {
			k := keyID(p.seed, "rq", i)
			if rerr := trio[0].node.Replicate(wire.TInsert, k, wire.OriginAuto, valueFor(p.size, k, 0), 0); rerr != nil && err == nil {
				err = rerr
			}
		})
		p.res.set("p2p.replicate_quorum_us", percentile(rtt, 50))
	})
	if err != nil {
		return err
	}

	// PullRepair of a 20 000-entry region: node 0 holds region 1's
	// replicas (it is unregioned, the pre-handoff state), node 1 pulls.
	entries := p.n(20000)
	rp, stopRP, err := startMemNodes(2, 1, func(i int) bool { return i == 1 })
	if err != nil {
		return err
	}
	defer stopRP()
	for i, k := range keysOwnedBy(p.seed, "rep", 1, 2, entries) {
		if err := rp[0].pool.ImportReplica(i%2, uint32(i%2), k, valueFor(p.size, k, 0)); err != nil {
			return err
		}
	}
	var applied int
	d = p.rec.timed(parent, "p2p.pull_repair", func() { applied, err = rp[1].node.PullRepair(0, 1) })
	if err != nil {
		return err
	}
	if applied != entries {
		return fmt.Errorf("pull repair applied %d entries, want %d", applied, entries)
	}
	p.res.set("p2p.repair_entries_per_s", float64(entries)/d.Seconds())
	return nil
}

// simProbes are paper-sim's per-layer numbers that the workload itself
// does not already produce.
func (p *paperRun) simProbes() {
	events := scaled(1<<20, p.cfg.ProbeScale)
	p.rec.timed(0, "probe.eventsim", func() {
		s := eventsim.New(p.seed)
		fn := func(uint64) {}
		t0 := time.Now()
		for i := 0; i < events; i++ {
			s.AfterCall(time.Duration(i%1024)*time.Millisecond, fn, uint64(i))
			if i%1024 == 1023 {
				s.Run()
			}
		}
		s.Run()
		p.res.set("eventsim.ns_per_event", float64(time.Since(t0))/float64(events))
	})
	p.rec.timed(0, "probe.idspace", func() {
		space := idspace.MustSpace(4)
		ids := make([]idspace.ID, 1024)
		for i := range ids {
			ids[i] = keyID(p.seed, "id", i)
		}
		sink := 0
		n := scaled(1<<22, p.cfg.ProbeScale)
		ns := meanNs(n, func(i int) { sink += space.CommonDigits(ids[i&1023], ids[(i*7+1)&1023]) })
		if sink < 0 {
			panic("unreachable")
		}
		p.res.set("idspace.common_digits_ns", ns)
	})
	p.rec.timed(0, "probe.pastry", func() {
		scale := experiments.QuickPerturbScale()
		scale.Seed = p.seed
		t0 := time.Now()
		_, err := experiments.RunPerturb(scale, experiments.FlapSetting{Label: "30:30", Idle: 30 * time.Second, Offline: 30 * time.Second}, 0.5, experiments.VariantPastry)
		if err != nil {
			p.res.violate("probe pastry: %v", err)
			return
		}
		p.res.set("pastry.lookups_per_s", float64(scale.Requests)/time.Since(t0).Seconds())
	})
}
