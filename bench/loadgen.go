package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	discovery "discovery"
)

// opKind is one request kind of a workload mix.
type opKind uint8

const (
	opLookup    opKind = iota
	opInsert           // a fresh key, never written before
	opOverwrite        // a settled key, new value
	opDelete           // a settled key from the delete pool
)

func (k opKind) mutation() bool { return k != opLookup }

func (k opKind) String() string {
	return [...]string{"lookup", "insert", "overwrite", "delete"}[k]
}

// op is one generated request.
type op struct {
	kind opKind
	key  discovery.ID
}

// Mix is a request mix as shares that sum to 1.
type Mix struct {
	Lookup    float64 `json:"lookup"`
	Insert    float64 `json:"insert"`
	Overwrite float64 `json:"overwrite"`
	Delete    float64 `json:"delete"`
}

// keyID is the one place keys are formed: every key any workload sends
// is NewID("bench-<seed>-<class><i>").
func keyID(seed int64, class string, i int) discovery.ID {
	return discovery.NewID(fmt.Sprintf("bench-%d-%s%d", seed, class, i))
}

// valueFor fills a payload that identifies its key and generation, so an
// overwrite really changes the stored bytes.
func valueFor(size int, key discovery.ID, gen uint64) []byte {
	v := make([]byte, size)
	for i := range v {
		v[i] = key[i%len(key)] ^ byte(gen>>(8*(uint(i)%8)))
	}
	return v
}

// mixGen produces a workload's request sequence. The k-th op of a
// (seed, stream) pair is always the same, whatever the timing: workers
// claim ops in order under a mutex, so only the interleaving of
// executions varies between runs, never the inputs.
//
// Settled keys are split in two so that expected state stays decidable
// under concurrency: deletes consume the delete pool front to back (each
// key deleted once, wrapping only if a run outlasts the pool), while
// lookups and overwrites draw from the live pool, which no delete ever
// touches.
type mixGen struct {
	mu      sync.Mutex
	rng     *rand.Rand
	zipf    *rand.Zipf // nil = uniform lookups
	mix     Mix
	seed    int64
	stream  string
	live    []discovery.ID
	delPool []discovery.ID
	nIns    int
	nDel    int
}

func newMixGen(seed int64, stream string, mix Mix, zipfS float64, live, delPool []discovery.ID) *mixGen {
	// Distinct streams of one seed must not share a sequence.
	h := int64(0)
	for _, c := range stream {
		h = h*131 + int64(c)
	}
	g := &mixGen{rng: rand.New(rand.NewSource(seed*1000003 + h)), mix: mix, seed: seed, stream: stream, live: live, delPool: delPool}
	if zipfS > 1 && len(live) > 1 {
		g.zipf = rand.NewZipf(g.rng, zipfS, 1, uint64(len(live)-1))
	}
	return g
}

func (g *mixGen) next() op {
	g.mu.Lock()
	defer g.mu.Unlock()
	u := g.rng.Float64()
	switch {
	case u < g.mix.Lookup:
		if g.zipf != nil {
			return op{opLookup, g.live[g.zipf.Uint64()]}
		}
		return op{opLookup, g.live[g.rng.Intn(len(g.live))]}
	case u < g.mix.Lookup+g.mix.Insert:
		g.nIns++
		return op{opInsert, keyID(g.seed, g.stream+"-f", g.nIns)}
	case u < g.mix.Lookup+g.mix.Insert+g.mix.Overwrite || len(g.delPool) == 0:
		return op{opOverwrite, g.live[g.rng.Intn(len(g.live))]}
	default:
		k := g.delPool[g.nDel%len(g.delPool)]
		g.nDel++
		return op{opDelete, k}
	}
}

// sample is what one executed request left behind.
type sample struct {
	kind   opKind
	ok     bool
	latUs  float64 // closed loop: from actual send; open loop: from intended send
	lateUs float64 // open loop only: actual send − intended send
	start  time.Time
	trace  uint64 // nonzero when the request carried a trace id
}

// doFunc executes one op. trc is the trace id to stamp (0 = none).
type doFunc func(o op, trc uint64) bool

// traceStamp hands out trace ids for 1 request in every, from a
// splitmix64 stream of the run seed. every <= 0 disables stamping.
type traceStamp struct {
	every uint64
	base  uint64
	n     atomic.Uint64
}

func (t *traceStamp) next() uint64 {
	if t == nil || t.every == 0 {
		return 0
	}
	k := t.n.Add(1)
	if k%t.every != 0 {
		return 0
	}
	z := t.base + k*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// closedLoop keeps c requests outstanding until d has elapsed and
// returns every sample.
func closedLoop(c int, d time.Duration, gen func() op, do doFunc) []sample {
	per := make([][]sample, c)
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				o := gen()
				t0 := time.Now()
				ok := do(o, 0)
				per[w] = append(per[w], sample{kind: o.kind, ok: ok, latUs: us(time.Since(t0)), start: t0})
			}
		}(w)
	}
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// closedLoopN runs exactly n ops with c outstanding (preload, restart
// writes): fixed work rather than fixed time.
func closedLoopN(c, n int, gen func() op, do doFunc) []sample {
	out := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := next.Add(1) - 1
				if k >= int64(n) {
					return
				}
				o := gen()
				t0 := time.Now()
				ok := do(o, 0)
				out[k] = sample{kind: o.kind, ok: ok, latUs: us(time.Since(t0)), start: t0}
			}
		}()
	}
	wg.Wait()
	return out
}

// schedule is the open-loop arrival schedule: request k is due at
// start + k/rate. It is the whole definition of "intended send time".
type schedule struct {
	start    time.Time
	interval time.Duration
	n        int
}

func newSchedule(start time.Time, rate float64, d time.Duration) schedule {
	return schedule{start: start, interval: time.Duration(float64(time.Second) / rate), n: int(rate * d.Seconds())}
}

func (s schedule) intended(k int) time.Time { return s.start.Add(time.Duration(k) * s.interval) }

// pause blocks the calling OS thread for d using nanosleep(2). Go's
// time.Sleep wakes an idle process on a 1 ms grid (measured here:
// +1.0 ms p50 for a 100 µs sleep), which at 10 000 req/s would bunch ten
// arrivals per wake-up and make every latency generator-bound;
// nanosleep overshoots by ~70 µs.
func pause(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil) //nolint:errcheck // an early wake-up just re-enters the pacing loop
}

// openLoop offers requests on sched regardless of completions, with at
// most maxOut outstanding. Latency is measured from each request's
// intended send time, so a stall (of the system or of this generator)
// is charged to every request it delays; lateUs reports the generator's
// own share. stop, when non-nil, ends the run early (the remaining
// schedule is not attempted).
func openLoop(sched schedule, maxOut int, gen func() op, do doFunc, ts *traceStamp, stop <-chan struct{}) []sample {
	out := make([]sample, sched.n)
	sem := make(chan struct{}, maxOut)
	var wg sync.WaitGroup
	issued := 0

	// The pacer owns an OS thread so nanosleep blocks only itself. It
	// unlocks before returning: a goroutine that exits locked takes its
	// thread down with it.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
pace:
	for k := 0; k < sched.n; k++ {
		due := sched.intended(k)
		for {
			wait := time.Until(due)
			if wait <= 0 {
				break
			}
			pause(wait)
		}
		if stop != nil {
			select {
			case <-stop:
				break pace
			default:
			}
		}
		sem <- struct{}{} // at the cap the schedule slips, and the slip is measured
		o := gen()
		trc := ts.next()
		issued = k + 1
		wg.Add(1)
		go func(k int, o op, trc uint64) {
			defer wg.Done()
			sent := time.Now()
			ok := do(o, trc)
			done := time.Now()
			out[k] = sample{kind: o.kind, ok: ok, latUs: us(done.Sub(due)), lateUs: us(sent.Sub(due)), start: sent, trace: trc}
			<-sem
		}(k, o, trc)
	}
	wg.Wait()
	return out[:issued]
}

// openLoopSerial is openLoop for a system that takes one request at a
// time (a single-threaded library): the pacer itself makes each call, so
// no goroutine hand-off sits between the schedule and the system. A
// request still due while its predecessor runs is sent as soon as that
// returns, late, and its latency counts from when it was due.
func openLoopSerial(sched schedule, gen func() op, do doFunc) []sample {
	out := make([]sample, sched.n)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for k := range out {
		due := sched.intended(k)
		for {
			wait := time.Until(due)
			if wait <= 0 {
				break
			}
			pause(wait)
		}
		o := gen()
		sent := time.Now()
		ok := do(o, 0)
		out[k] = sample{kind: o.kind, ok: ok, latUs: us(time.Since(due)), lateUs: us(sent.Sub(due)), start: sent}
	}
	return out
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// windowsOf cuts a phase of length d into windows of about one second.
func windowsOf(d time.Duration) int {
	if n := int(d.Seconds() + 0.5); n > 1 {
		return n
	}
	return 1
}

// windowOf returns which of n equal windows of [t0, t0+d) t falls in
// (clamped to the ends).
func windowOf(t, t0 time.Time, d time.Duration, n int) int {
	idx := int(float64(t.Sub(t0)) / float64(d) * float64(n))
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// phaseStats is what the latency and throughput metrics are read from.
//
// The phase is cut into one-second windows. p50 is the lower quartile of
// the windows' medians and rate the upper quartile of the windows' rates
// (see quietLow: a neighbour's burst then has to cover three quarters of
// a phase before it moves either). p99 is taken over every sample except
// those sent in the single window with the worst p99 (when there are at
// least three windows): one scheduler stall otherwise decides it, while
// periodic background work, which returns in other windows, stays in.
// Nothing is trimmed from slo_ok_ratio, the counts or lat_pmax.
type phaseStats struct {
	n, ok, sloOK int
	p50          float64 // µs, lower quartile of the window medians
	p99          float64 // µs, worst window trimmed
	rate         float64 // completions per second, upper quartile of the windows
	pmaxP, pmaxV float64 // highest supported percentile over all samples
	lateP99      float64
}

// foldPhase summarises the samples of one phase that ran over
// [t0, t0+d); limitUs is the latency limit of an op kind.
func foldPhase(samples []sample, t0 time.Time, d time.Duration, limitUs func(opKind) float64) phaseStats {
	st := phaseStats{n: len(samples)}
	if len(samples) == 0 {
		return st
	}
	nWin := windowsOf(d)
	lat := make([][]float64, nWin)
	done := make([]float64, nWin)
	var all, late []float64
	for _, s := range samples {
		w := windowOf(s.start, t0, d, nWin)
		lat[w] = append(lat[w], s.latUs)
		all = append(all, s.latUs)
		late = append(late, s.lateUs)
		if s.ok {
			st.ok++
			if s.latUs <= limitUs(s.kind) {
				st.sloOK++
			}
		}
		end := s.start.Add(time.Duration((s.latUs - s.lateUs) * 1e3))
		done[windowOf(end, t0, d, nWin)]++
	}
	worst, worstP99 := -1, -1.0
	var rates, medians []float64
	for w := range lat {
		if len(lat[w]) == 0 {
			continue
		}
		rates = append(rates, done[w]/(d.Seconds()/float64(nWin)))
		sorted := sortedCopy(lat[w])
		medians = append(medians, percentile(sorted, 50))
		if p := percentile(sorted, 99); p > worstP99 {
			worst, worstP99 = w, p
		}
	}
	var kept []float64
	for w := range lat {
		if w != worst || nWin < 3 {
			kept = append(kept, lat[w]...)
		}
	}
	st.p50, st.p99, st.rate = quietLow(medians), percentile(sortedCopy(kept), 99), quietHigh(rates)
	st.pmaxP, st.pmaxV = highestSupported(sortedCopy(all))
	st.lateP99 = percentile(sortedCopy(late), 99)
	return st
}
