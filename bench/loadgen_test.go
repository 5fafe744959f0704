package main

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	discovery "discovery"
)

func testKeys(class string, n int) []discovery.ID {
	keys := make([]discovery.ID, n)
	for i := range keys {
		keys[i] = keyID(1, class, i)
	}
	return keys
}

func TestScheduleIntendedTimes(t *testing.T) {
	start := time.Unix(1000, 0)
	s := newSchedule(start, 4000, 2*time.Second)
	if s.n != 8000 {
		t.Fatalf("4000/s for 2 s schedules %d requests, want 8000", s.n)
	}
	if got := s.intended(0); !got.Equal(start) {
		t.Errorf("request 0 due at %v, want the start", got)
	}
	if got := s.intended(4000).Sub(start); got != time.Second {
		t.Errorf("request 4000 due %v after start, want 1s", got)
	}
}

// TestOpenLoopChargesStallsFromIntendedTime: the system stalls for one
// request; every request scheduled during the stall must carry the wait
// in its latency (no coordinated omission), while lateness stays the
// generator's own share.
func TestOpenLoopChargesStallsFromIntendedTime(t *testing.T) {
	const rate, stall = 1000.0, 60 * time.Millisecond
	sched := newSchedule(time.Now().Add(5*time.Millisecond), rate, 200*time.Millisecond)
	var calls atomic.Int64
	do := func(op, uint64) bool {
		if calls.Add(1) == 20 {
			time.Sleep(stall)
		}
		return true
	}
	// One outstanding: a stalled request blocks the schedule behind it.
	samples := openLoop(sched, 1, func() op { return op{} }, do, nil, nil)
	if len(samples) != sched.n {
		t.Fatalf("ran %d of %d scheduled requests", len(samples), sched.n)
	}
	delayed := 0
	for _, s := range samples {
		if s.lateUs < 0 || s.latUs < s.lateUs {
			t.Fatalf("sample late %v µs, latency %v µs: latency must include lateness", s.lateUs, s.latUs)
		}
		if s.latUs > float64(stall/time.Microsecond)/2 {
			delayed++
		}
	}
	// The stall covers 60 arrivals; all but the tail end of them wait
	// at least half of it.
	if delayed < 20 {
		t.Errorf("only %d requests show the 60 ms stall; requests queued behind it lost their wait", delayed)
	}
	st := foldPhase(samples, sched.start, 200*time.Millisecond, func(opKind) float64 { return 5000 })
	if st.n != sched.n || st.ok != sched.n {
		t.Errorf("folded n=%d ok=%d, want %d", st.n, st.ok, sched.n)
	}
	if st.sloOK >= st.n {
		t.Errorf("every request within the 5 ms limit despite a 60 ms stall")
	}
	if st.lateP99 < float64(stall/time.Microsecond)/2 {
		t.Errorf("gen.late p99 %v µs does not show the slip the cap of 1 outstanding forced", st.lateP99)
	}
}

func TestOpenLoopStops(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	samples := openLoop(newSchedule(time.Now(), 1000, time.Second), 4, func() op { return op{} }, func(op, uint64) bool { return true }, nil, stop)
	if len(samples) != 0 {
		t.Errorf("a stopped open loop still issued %d requests", len(samples))
	}
}

func TestMixGenDeterministicAndProportional(t *testing.T) {
	live, del := testKeys("l", 500), testKeys("d", 300)
	mix := Mix{Lookup: 0.5, Insert: 0.3, Overwrite: 0.1, Delete: 0.1}
	a := newMixGen(7, "x", mix, 1.1, live, del)
	b := newMixGen(7, "x", mix, 1.1, live, del)
	other := newMixGen(8, "x", mix, 1.1, live, del)
	counts := map[opKind]int{}
	same, differs := true, false
	seenDel := map[discovery.ID]bool{}
	seenIns := map[discovery.ID]bool{}
	liveSet := map[discovery.ID]bool{}
	for _, k := range live {
		liveSet[k] = true
	}
	const n = 2000
	for i := 0; i < n; i++ {
		oa, ob, oo := a.next(), b.next(), other.next()
		same = same && oa == ob
		differs = differs || oa != oo
		counts[oa.kind]++
		switch oa.kind {
		case opDelete:
			if seenDel[oa.key] {
				t.Fatalf("delete %d reuses a key before the pool is exhausted", i)
			}
			seenDel[oa.key] = true
			if liveSet[oa.key] {
				t.Fatal("a delete drew from the live pool")
			}
		case opInsert:
			if seenIns[oa.key] {
				t.Fatal("a fresh insert repeated a key")
			}
			seenIns[oa.key] = true
		case opLookup, opOverwrite:
			if !liveSet[oa.key] {
				t.Fatalf("%v drew a key outside the live pool", oa.kind)
			}
		}
	}
	if !same {
		t.Error("same seed and stream gave different sequences")
	}
	if !differs {
		t.Error("different seeds gave the same sequence")
	}
	for k, want := range map[opKind]float64{opLookup: 0.5, opInsert: 0.3, opOverwrite: 0.1, opDelete: 0.1} {
		if got := float64(counts[k]) / n; math.Abs(got-want) > 0.04 {
			t.Errorf("%v share %.3f, want %.2f", k, got, want)
		}
	}
}

func TestZipfSkewsTowardsLowRanks(t *testing.T) {
	live := testKeys("z", 1000)
	g := newMixGen(3, "zipf", Mix{Lookup: 1}, 1.1, live, nil)
	hot := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if g.next().key == live[0] {
			hot++
		}
	}
	// Uniform would put 0.1 % on any one key.
	if float64(hot)/n < 0.05 {
		t.Errorf("rank-0 key drew %.2f %% of Zipf(1.1) lookups; the skew is missing", 100*float64(hot)/n)
	}
}

func TestTraceStampOneInN(t *testing.T) {
	ts := &traceStamp{every: 16, base: 9}
	stamped := map[uint64]bool{}
	for i := 0; i < 1600; i++ {
		if id := ts.next(); id != 0 {
			stamped[id] = true
		}
	}
	if len(stamped) != 100 {
		t.Errorf("1600 requests at 1 in 16 gave %d distinct trace ids, want 100", len(stamped))
	}
	if (*traceStamp)(nil).next() != 0 {
		t.Error("a nil stamper must not stamp")
	}
}

func TestFoldPhaseTrimsOneWindow(t *testing.T) {
	// Six seconds of 100 samples: even seconds run at 100 µs, odd seconds
	// carry periodic background work that puts 5 samples at 2 ms, and a
	// one-off stall puts 30 samples of second 2 at 50 ms.
	t0 := time.Unix(2000, 0)
	var samples []sample
	for sec := 0; sec < 6; sec++ {
		for i := 0; i < 100; i++ {
			lat := 100.0
			if sec%2 == 1 && i < 5 {
				lat = 2000
			}
			if sec == 2 && i < 30 {
				lat = 50000
			}
			samples = append(samples, sample{ok: true, latUs: lat, start: t0.Add(time.Duration(sec)*time.Second + time.Duration(i)*time.Millisecond)})
		}
	}
	st := foldPhase(samples, t0, 6*time.Second, func(opKind) float64 { return 5000 })
	// Without second 2: 500 samples, 15 of them at 2 ms: p99 is 2 ms — the
	// periodic work stays in the figure, the stall does not.
	if st.p50 != 100 || st.p99 != 2000 {
		t.Errorf("trimmed p50/p99 = %v/%v, want 100/2000", st.p50, st.p99)
	}
	if st.rate != 100 {
		t.Errorf("window rate = %v/s, want 100", st.rate)
	}
	if st.sloOK != 570 || st.n != 600 {
		t.Errorf("%d of %d within the limit, want 570 of 600: the stall still counts against the SLO", st.sloOK, st.n)
	}
	if st.pmaxV != 50000 {
		t.Errorf("lat_pmax = %v, want the stall visible in the all-sample tail", st.pmaxV)
	}
	// Two windows are too few to call one of them the outlier.
	if st := foldPhase(samples[:200], t0, 2*time.Second, func(opKind) float64 { return 5000 }); st.p99 != 2000 {
		t.Errorf("two-window p99 = %v, want 2000 with nothing trimmed", st.p99)
	}
}

func TestFoldPhaseReadsTheQuietWindows(t *testing.T) {
	// Eight seconds; a neighbour's burst covers five of them, in which
	// every request takes 300 µs instead of 100 µs and half as many
	// complete. The pooled median would be 300 µs; p50 and rate must read
	// the three quiet seconds.
	t0 := time.Unix(3000, 0)
	var samples []sample
	for sec := 0; sec < 8; sec++ {
		n, lat := 100, 100.0
		if sec >= 2 && sec < 7 {
			n, lat = 50, 300
		}
		for i := 0; i < n; i++ {
			samples = append(samples, sample{ok: true, latUs: lat, start: t0.Add(time.Duration(sec)*time.Second + time.Duration(i)*time.Millisecond)})
		}
	}
	st := foldPhase(samples, t0, 8*time.Second, func(opKind) float64 { return 5000 })
	if st.p50 != 100 || st.rate != 100 {
		t.Errorf("p50 = %v µs, rate = %v/s; want 100 and 100 from the quiet windows", st.p50, st.rate)
	}
	if st.sloOK != st.n {
		t.Errorf("%d of %d within the limit, want all", st.sloOK, st.n)
	}
	// A change to the program moves every window, so it moves p50.
	for i := range samples {
		samples[i].latUs *= 2
	}
	if st := foldPhase(samples, t0, 8*time.Second, func(opKind) float64 { return 5000 }); st.p50 != 200 {
		t.Errorf("p50 = %v µs after every request doubled, want 200", st.p50)
	}
}
