package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	discovery "discovery"
	"discovery/internal/cluster"
	"discovery/internal/server"
	"discovery/internal/wire"
)

// env is what every workload run needs from its invocation.
type env struct {
	cfg     config
	nodeBin string            // built cmd/discoverynode
	workDir string            // scratch inside the checkout; removed on exit
	outDir  string            // where span files go
	goldens map[string]string // experiment seed -> table hash (paper-sim)
}

// servingRun drives one serving workload against a real cluster.
type servingRun struct {
	env
	spec    servingSpec
	seed    int64
	seconds int
	rec     *recorder // nil = tracing off
	res     *runResult
	cl      *nodeCluster

	live    []discovery.ID // settled keys lookups and overwrites use
	delPool []discovery.ID // settled keys deletes consume

	attempted atomic.Int64
	failed    atomic.Int64
	valueGen  atomic.Uint64

	mu       sync.Mutex
	ackedIns []discovery.ID
	ackedDel []discovery.ID
	errShown int
}

var errNotFound = errors.New("settled key not found")

// do executes one generated request through the cluster client and
// applies the in-run correctness gate: every lookup here targets a
// settled key, so not-found is a violation, not an outcome.
func (r *servingRun) do(o op, trc uint64) bool {
	r.attempted.Add(1)
	var err error
	switch o.kind {
	case opLookup:
		lr, e := r.cl.cc.LookupTraced(cluster.OriginAuto, o.key, trc)
		err = e
		if e == nil && !lr.Found {
			err = errNotFound
			r.res.violate("lookup of settled key %v: not found", o.key)
		}
	case opInsert, opOverwrite:
		v := valueFor(r.cfg.ValueBytes, o.key, r.valueGen.Add(1))
		_, err = r.cl.cc.InsertTraced(cluster.OriginAuto, o.key, v, trc)
		if err == nil && o.kind == opInsert {
			r.mu.Lock()
			r.ackedIns = append(r.ackedIns, o.key)
			r.mu.Unlock()
		}
	case opDelete:
		_, err = r.cl.cc.DeleteTraced(cluster.OriginAuto, o.key, trc)
		if err == nil {
			r.mu.Lock()
			r.ackedDel = append(r.ackedDel, o.key)
			r.mu.Unlock()
		}
	}
	if err == nil {
		return true
	}
	r.failed.Add(1)
	r.mu.Lock()
	if r.errShown < 5 {
		r.errShown++
		r.res.note("request failed: %v", err)
	}
	r.mu.Unlock()
	return false
}

func (r *servingRun) nodeFlags() []string {
	f := append([]string(nil), r.cfg.NodeFlags...)
	f = append(f, r.spec.ExtraNodeFlags...)
	if r.rec != nil {
		// A tracer must exist for stamped requests to leave spans; the
		// node's own sampling is set so sparse it adds none of its own.
		f = append(f, "-trace-sample", "1000000")
	}
	return f
}

// setup is what setup_s times: cluster start, all members visible,
// preload acked, warm-up done.
func (r *servingRun) setup() (time.Duration, error) {
	t0 := time.Now()
	cl, err := startCluster(r.nodeBin, r.workDir, r.cfg.Nodes, r.nodeFlags())
	if err != nil {
		return 0, err
	}
	r.cl = cl
	settled := append(append([]discovery.ID(nil), r.delPool...), r.live...)
	var next atomic.Int64
	seq := func(kind opKind, keys []discovery.ID) func() op {
		next.Store(0)
		return func() op { return op{kind, keys[int(next.Add(1)-1)%len(keys)]} }
	}
	for _, s := range closedLoopN(r.cfg.PreloadOutstanding, len(settled), seq(opOverwrite, settled), r.do) {
		if !s.ok {
			err := fmt.Errorf("preload failed; node 0 log: %s", cl.logTail(0))
			cl.destroy()
			return 0, err
		}
	}
	closedLoopN(r.cfg.ClosedOutstanding, r.cfg.WarmupLookups, seq(opLookup, r.live), r.do)
	return time.Since(t0), nil
}

func (r *servingRun) limitUs(k opKind) float64 {
	if k.mutation() {
		return r.cfg.MutationLimitMs * 1e3
	}
	return r.cfg.LookupLimitMs * 1e3
}

func (r *servingRun) run() error {
	spec := r.spec
	settled := make([]discovery.ID, spec.PreloadKeys)
	for i := range settled {
		settled[i] = keyID(r.seed, "s", i)
	}
	r.delPool, r.live = settled[:spec.DeletePool], settled[spec.DeletePool:]

	// Set-up, several times: the driver holds setup_s to a bound, and one
	// cluster start is too noisy to hold to anything.
	var setups []float64
	for i := 0; i < r.cfg.SetupsPerRun; i++ {
		if r.cl != nil {
			r.cl.destroy()
		}
		r.mu.Lock()
		r.ackedIns, r.ackedDel = nil, nil
		r.mu.Unlock()
		d, err := r.setup()
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	defer r.cl.destroy()
	r.res.set("setup_s", median(setups))
	r.res.note("setup_s is the median of %d set-ups: %.3v s", len(setups), setups)

	scrapeNames := []string{"wal_fsyncs", "wal_records", "wal_appends", "p2p_frames", "p2p_writes", "server_frames", "server_writes"}
	var before map[string]float64
	if r.rec != nil {
		before, _ = r.cl.scrapeSum(scrapeNames...)
	}
	cc0 := r.cl.cc.Stats()

	// Phase A: closed loop, C outstanding — the peak the cluster takes.
	genA := newMixGen(r.seed, "a", spec.Mix, spec.ZipfS, r.live, r.delPool)
	durA := share(r.seconds, spec.ClosedShare)
	tA := time.Now()
	sa := closedLoop(r.cfg.ClosedOutstanding, durA, genA.next, r.do)
	r.res.set("peak_rps", foldPhase(sa, tA, durA, r.limitUs).rate)

	// Phase B: open loop at the fixed calibrated rate. A traced run
	// splits it: first half untraced (the base of trace_overhead_ratio),
	// second half stamped and joined with the nodes' spans.
	genB := newMixGen(r.seed, "b", spec.Mix, spec.ZipfS, r.live, r.delPool)
	durB := share(r.seconds, spec.OpenShare)
	if r.rec != nil {
		durB /= 2
	}
	cpu0, self0, t0 := r.cl.nodesCPU(), selfCPU(), time.Now()
	ob, _ := r.openPhase(genB, durB, nil)
	cpu1, self1, wallB := r.cl.nodesCPU(), selfCPU(), time.Since(t0)
	if ob.ok == 0 {
		return fmt.Errorf("open-loop phase completed nothing; node 0 log: %s", r.cl.logTail(0))
	}
	r.res.set("lat_p50_us", ob.p50)
	r.res.set("lat_p99_us", ob.p99)
	r.res.set("cluster.lat_pmax_us", ob.pmaxV)
	r.res.note("open loop: %d samples at %.0f req/s; p50 is the lower quartile of the one-second windows' medians; p99 leaves out the worst window; lat_pmax is p%.3f of all samples", ob.n, spec.OpenRate, ob.pmaxP)
	r.res.set("cpu_us_per_req", (cpu1-cpu0)*1e6/float64(ob.ok))
	r.res.set("gen.late_p99_us", ob.lateP99)
	r.res.set("gen.cpu_share", (self1-self0)/(wallB.Seconds()*float64(runtime.NumCPU())))
	if ob.lateP99 > ob.p50/10 {
		r.res.note("generator-bound: gen.late_p99_us %.0f is above a tenth of lat_p50_us %.0f", ob.lateP99, ob.p50)
	}
	sloOK, sloN := ob.sloOK, ob.n

	if r.rec != nil {
		r.tracedPhase(genB, durB, ob.p50)
		if after, err := r.cl.scrapeSum(scrapeNames...); err == nil && before != nil {
			d := func(n string) float64 { return after[n] - before[n] }
			r.res.set("wal.fsyncs_per_record", ratio(d("wal_fsyncs"), d("wal_records")))
			r.res.set("wal.records_per_batch", ratio(d("wal_records"), d("wal_appends")))
			r.res.set("p2p.frames_per_write", ratio(d("p2p_frames"), d("p2p_writes")))
			r.res.set("server.frames_per_writev", ratio(d("server_frames"), d("server_writes")))
		}
	}

	// Restart cycles: kill, write through the survivors, restart, time
	// until the restarted node itself answers for everything it missed.
	var catchups, repairBytes []float64
	var cycleKeys []discovery.ID
	for c := 0; c < spec.RestartCycles; c++ {
		cy, err := r.restartCycle(c)
		if err != nil {
			return err
		}
		catchups = append(catchups, cy.catchup.Seconds())
		repairBytes = append(repairBytes, cy.repair)
		cycleKeys = append(cycleKeys, cy.keys...)
		st := foldPhase(cy.bg, time.Now(), time.Second, r.limitUs)
		sloOK, sloN = sloOK+st.sloOK, sloN+st.n
	}
	r.res.set("catchup_s", quietLow(catchups))
	r.res.note("catchup_s is the lower quartile of %d cycles: %.3v s", len(catchups), catchups)
	r.res.set("p2p.repair_bytes_per_cycle", median(repairBytes))
	r.res.set("slo_ok_ratio", ratio(float64(sloOK), float64(sloN)))
	r.res.note("slo_ok_ratio: %d of %d open-loop requests within %.0f ms (lookup) / %.0f ms (mutation)",
		sloOK, sloN, r.cfg.LookupLimitMs, r.cfg.MutationLimitMs)

	// The last restarted node's post-join anti-entropy is still walking
	// its peers right after the final cycle; let it finish so the audit
	// passes time the cluster at rest.
	time.Sleep(300 * time.Millisecond)
	d, err := r.audit(cycleKeys)
	if err != nil {
		return err
	}
	r.res.set("repro_s", d.Seconds())

	cc1 := r.cl.cc.Stats()
	routed, relayed := float64(cc1.Routed-cc0.Routed), float64(cc1.Relayed-cc0.Relayed)
	r.res.set("cluster.routed_share", ratio(routed, routed+relayed))
	r.res.set("cluster.failovers", float64(cc1.Failovers-cc0.Failovers))
	r.res.set("cluster.refreshes", float64(cc1.Refreshes-cc0.Refreshes))
	r.res.set("node.rss_peak_mb", r.cl.rssPeakMB())
	r.res.set("node.disk_bytes", r.cl.diskBytes())
	r.res.Attempted, r.res.Failed = r.attempted.Load(), r.failed.Load()
	if r.res.Failed > 0 {
		r.res.Correct = false
	}
	return nil
}

// openPhase runs one open-loop phase of d at the workload's rate and
// folds it.
func (r *servingRun) openPhase(gen *mixGen, d time.Duration, ts *traceStamp) (phaseStats, []sample) {
	sched := newSchedule(time.Now().Add(20*time.Millisecond), r.spec.OpenRate, d)
	samples := openLoop(sched, r.cfg.OpenMaxOutstanding, gen.next, r.do, ts, nil)
	return foldPhase(samples, sched.start, d, r.limitUs), samples
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedPhase repeats the open-loop phase with 1 request in TraceOneIn
// stamped, polls the nodes' /debug/traces while it runs, joins those
// spans under the client calls and reports the request budget.
func (r *servingRun) tracedPhase(gen *mixGen, d time.Duration, untracedP50 float64) {
	store := newTraceStore(r.cl.metrics)
	stop, done := make(chan struct{}), make(chan struct{})
	go store.pollEvery(500*time.Millisecond, stop, done)
	st, samples := r.openPhase(gen, d, &traceStamp{every: uint64(r.cfg.TraceOneIn), base: uint64(r.seed)})
	close(stop)
	<-done

	r.res.set("bench.trace_overhead_ratio", ratio(st.p50, untracedP50))
	b := store.join(r.rec, samples)
	stamped := 0
	for _, s := range samples {
		if s.trace != 0 {
			stamped++
		}
	}
	r.res.note("traced phase: %d requests, %d stamped, %d joined with node spans", len(samples), stamped, b.joined)
	r.res.set("server.dispatch_us_p50", b.pct("server.dispatch", 50))
	r.res.set("server.queue_wait_us_p50", b.pct("server.queue_wait", 50))
	r.res.set("server.queue_wait_us_p99", b.pct("server.queue_wait", 99))
	r.res.set("pool.shard_exec_us_p50", b.pct("pool.shard_exec", 50))
	r.res.set("wal.commit_share_us_p50", b.pct("wal.commit_share", 50))
	r.res.set("wal.commit_share_us_p99", b.pct("wal.commit_share", 99))
	r.res.set("server.resp_flush_us_p50", b.pct("server.resp_flush", 50))
	r.res.set("p2p.peer_call_us_p50", b.pct("p2p.peer_call", 50))
	r.res.set("p2p.peer_call_us_p99", b.pct("p2p.peer_call", 99))
	r.res.set("p2p.replicate_exec_us_p50", b.pct("p2p.replicate_exec", 50))
	r.res.set("budget.coverage_ratio", ratio(float64(b.coveredNs), float64(b.clientNs)))
	r.res.set("cluster.call_overhead_us", percentile(sortedCopy(b.overheadUs), 50))
}

// cycle is what one kill/write/restart/catch-up cycle produced.
type cycle struct {
	catchup time.Duration
	keys    []discovery.ID // acked while the node was dead
	bg      []sample       // background lookups that ran during catch-up
	repair  float64        // bytes the survivors' peer writers sent during catch-up (repair pages, mostly)
}

func (r *servingRun) restartCycle(c int) (cy cycle, err error) {
	node := r.cfg.RestartNode
	// Drain: nothing is in flight from this generator, and the
	// slowest replica's copy of the last acked writes lands within this.
	time.Sleep(100 * time.Millisecond)
	r.cl.kill(node)

	var next atomic.Int64
	class := fmt.Sprintf("r%d-", c)
	var kmu sync.Mutex
	closedLoopN(r.cfg.ClosedOutstanding, r.spec.RestartKeys, func() op {
		return op{opInsert, keyID(r.seed, class, int(next.Add(1)))}
	}, func(o op, _ uint64) bool {
		ok := r.do(o, 0)
		if ok {
			kmu.Lock()
			cy.keys = append(cy.keys, o.key)
			kmu.Unlock()
		}
		return ok
	})

	if r.spec.RestartLookupRate > 0 {
		stop, done := make(chan struct{}), make(chan struct{})
		gen := newMixGen(r.seed, class+"bg", Mix{Lookup: 1}, r.spec.ZipfS, r.live, nil)
		go func() {
			defer close(done)
			sched := newSchedule(time.Now(), r.spec.RestartLookupRate, time.Minute)
			cy.bg = openLoop(sched, r.cfg.OpenMaxOutstanding, gen.next, r.do, nil, stop)
		}()
		defer func() { close(stop); <-done }()
	}

	survivors := func() float64 {
		total := 0.0
		for i := 0; i < r.cfg.Nodes; i++ {
			if i == node {
				continue
			}
			if m, err := r.cl.scrape(i); err == nil {
				total += m["p2p_peer_write_bytes"]
			}
		}
		return total
	}
	var bytes0 float64
	if r.rec != nil {
		bytes0 = survivors()
	}

	t0 := time.Now()
	if err := r.cl.startNode(node); err != nil {
		return cy, err
	}
	if err := r.awaitKeys(node, cy.keys, t0.Add(30*time.Second)); err != nil {
		return cy, fmt.Errorf("cycle %d: %w", c, err)
	}
	cy.catchup = time.Since(t0)
	if r.rec != nil {
		cy.repair = survivors() - bytes0
		r.rec.add(0, 0, fmt.Sprintf("node.catchup_cycle%d", c), node, t0.UnixNano(), t0.Add(cy.catchup).UnixNano())
	}
	return cy, nil
}

// awaitKeys polls node directly until it answers found for every key,
// in order: a key found once stays found, so the cursor only advances.
func (r *servingRun) awaitKeys(node int, keys []discovery.ID, deadline time.Time) error {
	var sc *server.Client
	defer func() {
		if sc != nil {
			sc.Close()
		}
	}()
	for i := 0; i < len(keys); {
		var err error
		if sc == nil {
			if sc, err = r.cl.dialNode(node, time.Until(deadline)); err != nil {
				return err
			}
		}
		rep, err := sc.Lookup(server.OriginAuto, keys[i])
		if err == nil && rep.Found {
			i++
			continue
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("node %d still misses key %d of %d (err %v); log: %s", node, i, len(keys), err, r.cl.logTail(node))
		}
		if err != nil { // the connection raced the node's start-up
			sc.Close()
			sc = nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// audit is the end-of-run correctness gate, and — being a fixed list of
// requests with known answers — what repro_s times on a serving
// workload. Every node must hold a sample of the acked inserts; keys
// never inserted must read not-found; an acked delete must read
// not-found through its owner.
func (r *servingRun) audit(cycleKeys []discovery.ID) (time.Duration, error) {
	rng := rand.New(rand.NewSource(r.seed))
	r.mu.Lock()
	pool := append(append([]discovery.ID(nil), r.ackedIns...), cycleKeys...)
	dels := append([]discovery.ID(nil), r.ackedDel...)
	r.mu.Unlock()
	// cycleKeys are also in ackedIns; duplicates only weight the draw.
	for len(pool) < r.cfg.AuditSample {
		pool = append(pool, r.live...)
	}
	pick := func(from []discovery.ID, n int) []discovery.ID {
		out := make([]discovery.ID, 0, n)
		for _, i := range rng.Perm(len(from)) {
			if len(out) == n {
				break
			}
			out = append(out, from[i])
		}
		return out
	}
	must := pick(pool, r.cfg.AuditSample)
	// A third as many routed reads: a run acks well over that many
	// deletes, so the list's length does not depend on how fast it ran.
	gone := pick(dels, r.cfg.AuditSample/3)
	never := make([]discovery.ID, r.cfg.AuditSample/3)
	for i := range never {
		never[i] = keyID(r.seed, "never", i)
	}
	// Requests are pipelined (direct reads) or C outstanding (routed
	// reads), never one at a time: a serial round trip on a shared host
	// times the scheduler's wake-up latency more than the system, and
	// read 30 % apart between runs. The list takes a fraction of a
	// second, so it is run several times and the lower quartile of the
	// passes reported (see quietLow); every pass must hold.
	var passes []float64
	for pass := 0; pass < r.cfg.AuditPasses; pass++ {
		t0 := time.Now()
		for i := 0; i < r.cfg.Nodes; i++ {
			if err := r.auditNode(i, must); err != nil {
				return 0, err
			}
		}
		for _, want := range []struct {
			what string
			keys []discovery.ID
		}{{"never-inserted key", never}, {"acked delete, read through its owner,", gone}} {
			var next atomic.Int64
			keys, what := want.keys, want.what
			closedLoopN(r.cfg.ClosedOutstanding, len(keys), func() op {
				return op{opLookup, keys[next.Add(1)-1]}
			}, func(o op, _ uint64) bool {
				r.attempted.Add(1)
				rep, err := r.cl.cc.Lookup(cluster.OriginAuto, o.key)
				if err != nil || rep.Found {
					r.failed.Add(1)
					r.res.violate("audit: %s %v: found=%v err=%v", what, o.key, rep.Found, err)
				}
				return err == nil
			})
		}
		d := time.Since(t0)
		passes = append(passes, d.Seconds())
		r.rec.add(0, 0, "bench.audit", -1, t0.UnixNano(), t0.Add(d).UnixNano())
	}
	r.res.note("repro_s is the lower quartile of %d audit passes: %.3v s", len(passes), passes)
	r.res.note("audit: %d acked keys on each of %d nodes, %d never-inserted, %d acked deletes", len(must), r.cfg.Nodes, r.cfg.AuditSample, len(gone))
	return time.Duration(quietLow(passes) * float64(time.Second)), nil
}

// auditWindow is how many direct reads auditNode keeps in flight on its
// one connection.
const auditWindow = 32

// auditNode reads every key of must from node i's own store over one
// pipelined connection; each must be found.
func (r *servingRun) auditNode(i int, must []discovery.ID) error {
	sc, err := r.cl.dialNode(i, 10*time.Second)
	if err != nil {
		return err
	}
	defer sc.Close()
	pending := make(map[uint64]discovery.ID, auditWindow)
	var m wire.Msg
	for sent, recvd := 0, 0; recvd < len(must); {
		for ; sent < len(must) && sent-recvd < auditWindow; sent++ {
			id, err := sc.Send(&wire.Msg{Type: wire.TLookup, Key: must[sent], Origin: wire.OriginAuto})
			if err != nil {
				return fmt.Errorf("audit: node %d: %w", i, err)
			}
			pending[id] = must[sent]
		}
		if err := sc.Flush(); err != nil {
			return fmt.Errorf("audit: node %d: %w", i, err)
		}
		if err := sc.Recv(&m); err != nil {
			return fmt.Errorf("audit: node %d: %w", i, err)
		}
		recvd++
		r.attempted.Add(1)
		if m.Type != wire.TLookupOK || !m.Lookup.Found {
			r.failed.Add(1)
			r.res.violate("audit: node %d does not hold acked key %v (reply %v %s)", i, pending[m.ReqID], m.Type, m.ErrorText())
		}
		delete(pending, m.ReqID)
	}
	return nil
}
