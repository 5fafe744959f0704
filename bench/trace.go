package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"discovery/internal/trace"
)

// span is one recorded interval. Spans form trees through Parent; every
// span of one client request shares Req (the trace id stamped on it).
// Bench-side spans have Node -1; node-side spans are the ones the nodes
// already serve at /debug/traces, attached under the client call that
// caused them.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Req    string `json:"req,omitempty"`
	Name   string `json:"name"` // "<layer>.<what>"
	Node   int    `json:"node"`
	Start  int64  `json:"start_unix_ns"`
	End    int64  `json:"end_unix_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps every span of a traced run in memory; nothing is
// written until the run ends. A nil recorder records nothing, which is
// how untraced runs pay no cost.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// add appends a span and returns its id.
func (r *recorder) add(parent int, req uint64, name string, node int, start, end int64) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	s := span{ID: id, Parent: parent, Name: name, Node: node, Start: start, End: end}
	if req != 0 {
		s.Req = fmt.Sprintf("%016x", req)
	}
	r.spans = append(r.spans, s)
	return id
}

// timed runs fn inside a bench-side span and returns its wall time.
func (r *recorder) timed(parent int, name string, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.add(parent, 0, name, -1, t0.UnixNano(), t0.Add(d).UnixNano())
	return d
}

// begin opens a bench-side root span whose end is set by end, for a
// span that must exist before its children do.
func (r *recorder) begin(name string) int {
	now := time.Now().UnixNano()
	return r.add(0, 0, name, -1, now, now)
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans[id-1].End = time.Now().UnixNano()
	r.mu.Unlock()
}

// write dumps every span as JSON.
func (r *recorder) write(path string, meta map[string]any) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Meta  map[string]any `json:"meta"`
		Spans []span         `json:"spans"`
	}{meta, r.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, for every span id, its duration minus the part of
// its interval that its direct children cover (children overlapping each
// other are not double-counted, and a child reaching past its parent is
// clipped).
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// selfByName is the median self time, in µs, of the spans of each name:
// where a request's time went once every child is subtracted.
func (r *recorder) selfByName() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	self := selfTimes(r.spans)
	by := map[string][]float64{}
	for _, s := range r.spans {
		by[s.Name] = append(by[s.Name], float64(self[s.ID])/1e3)
	}
	out := make(map[string]float64, len(by))
	for name, v := range by {
		out[name] = median(v)
	}
	return out
}

// covered is the length of [lo,hi) covered by the union of spans.
func covered(lo, hi int64, spans []span) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total int64
	cur := lo
	for _, s := range spans {
		a, b := s.Start, s.End
		if a < cur {
			a = cur
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// nodeSpan is one span as a node reports it.
type nodeSpan struct {
	kind       string
	node       int
	start, end int64
	extra      uint64 // for a peer_call, the index of the peer called
}

// traceStore accumulates node-side spans by trace id across polls. The
// nodes' span rings are small and lossy (4 x 1024 slots), so a phase is
// polled while it runs, not only at its end; duplicates from
// overlapping polls collapse on (node, kind, start).
type traceStore struct {
	urls []string
	mu   sync.Mutex
	byID map[string]map[nodeSpan]struct{}
}

func newTraceStore(metricsAddrs []string) *traceStore {
	ts := &traceStore{byID: map[string]map[nodeSpan]struct{}{}}
	for _, a := range metricsAddrs {
		ts.urls = append(ts.urls, "http://"+a+"/debug/traces?n=0")
	}
	return ts
}

func (ts *traceStore) poll() {
	for _, u := range ts.urls {
		resp, err := http.Get(u)
		if err != nil {
			continue // a killed node has nothing to say
		}
		var body struct {
			Traces []trace.JSONTrace `json:"traces"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			continue
		}
		ts.mu.Lock()
		for _, tr := range body.Traces {
			set := ts.byID[tr.ID]
			if set == nil {
				set = map[nodeSpan]struct{}{}
				ts.byID[tr.ID] = set
			}
			var walk func(sp []*trace.JSONSpan)
			walk = func(sp []*trace.JSONSpan) {
				for _, s := range sp {
					set[nodeSpan{s.Kind, int(s.Node), s.Start, s.Start + s.Dur, s.Extra}] = struct{}{}
					walk(s.Spans)
				}
			}
			walk(tr.Spans)
		}
		ts.mu.Unlock()
	}
}

// pollEvery polls until stop is closed, then once more.
func (ts *traceStore) pollEvery(d time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(d)
	defer t.Stop()
	for {
		select {
		case <-stop:
			ts.poll()
			return
		case <-t.C:
			ts.poll()
		}
	}
}

// layerOf maps a node span kind to the "<layer>.<what>" name the
// per-layer metrics use.
var layerOf = map[string]string{
	"dispatch":       "server.dispatch",
	"queue_wait":     "server.queue_wait",
	"shard_exec":     "pool.shard_exec",
	"wal_commit":     "wal.commit_share",
	"resp_flush":     "server.resp_flush",
	"peer_call":      "p2p.peer_call",
	"replicate_exec": "p2p.replicate_exec",
	"forward":        "p2p.forward",
	"route_exec":     "p2p.route_exec",
	"repair_exec":    "p2p.repair_exec",
	"transfer_exec":  "p2p.transfer_exec",
	"wrong_view":     "server.wrong_view",
}

// budget is what joining client samples with node spans yields.
type budget struct {
	joined     int
	byName     map[string][]float64 // span name -> durations in µs
	overheadUs []float64            // client latency − server residence
	coveredNs  int64                // client time covered by pre-reply node spans
	clientNs   int64
}

// join attaches each stamped sample's node spans under a client root
// span in rec and accumulates the budget. Parents follow cause, not mere
// containment: a span on the node that dispatched the request hangs off
// the client call; a span on another node hangs off the coordinator's
// peer_call to that node that encloses it. resp_flush is kept in the
// tree but left out of coverage and residence: its closing timestamp is
// taken after writev returns, by which time the client may already hold
// the reply.
func (ts *traceStore) join(rec *recorder, samples []sample) budget {
	b := budget{byName: map[string][]float64{}}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for _, s := range samples {
		if s.trace == 0 || !s.ok {
			continue
		}
		set := ts.byID[fmt.Sprintf("%016x", s.trace)]
		if len(set) == 0 {
			continue
		}
		// The client span runs from the actual send to the reply.
		cStart := s.start.UnixNano()
		cEnd := cStart + int64((s.latUs-s.lateUs)*1e3)
		root := rec.add(0, s.trace, "cluster."+s.kind.String(), -1, cStart, cEnd)

		ns := make([]nodeSpan, 0, len(set))
		coordinator := -1
		for sp := range set {
			ns = append(ns, sp)
			if sp.kind == "dispatch" {
				coordinator = sp.node
			}
		}
		sort.Slice(ns, func(i, j int) bool { return ns[i].start < ns[j].start })
		// Coordinator spans first, so every peer_call has an id before
		// the remote spans look for theirs.
		calls := map[nodeSpan]int{}
		name := func(sp nodeSpan) string {
			if n := layerOf[sp.kind]; n != "" {
				return n
			}
			return "node." + sp.kind
		}
		for _, sp := range ns {
			if sp.node != coordinator {
				continue
			}
			id := rec.add(root, s.trace, name(sp), sp.node, sp.start, sp.end)
			if sp.kind == "peer_call" {
				calls[sp] = id
			}
		}
		for _, sp := range ns {
			if sp.node == coordinator {
				continue
			}
			parent := root
			for call, id := range calls {
				if int(call.extra) == sp.node && call.start <= sp.start && sp.end <= call.end {
					parent = id
				}
			}
			rec.add(parent, s.trace, name(sp), sp.node, sp.start, sp.end)
		}

		// The reply is handed to the connection writer when resp_flush
		// opens; a call to the replica the quorum did not wait for may
		// still be running then, and is not time the client waited on.
		replyAt := cEnd
		for _, sp := range ns {
			if sp.kind == "resp_flush" && sp.node == coordinator {
				replyAt = sp.start
			}
		}
		var pre []span
		first, last := int64(0), int64(0)
		for _, sp := range ns {
			b.byName[name(sp)] = append(b.byName[name(sp)], float64(sp.end-sp.start)/1e3)
			end := sp.end
			if end > replyAt {
				end = replyAt
			}
			if sp.kind == "resp_flush" || sp.start >= end {
				continue
			}
			pre = append(pre, span{Start: sp.start, End: end})
			if first == 0 || sp.start < first {
				first = sp.start
			}
			if end > last {
				last = end
			}
		}
		b.joined++
		b.coveredNs += covered(cStart, cEnd, pre)
		b.clientNs += cEnd - cStart
		b.overheadUs = append(b.overheadUs, float64((cEnd-cStart)-(last-first))/1e3)
	}
	return b
}

func (b budget) pct(name string, p float64) float64 {
	return percentile(sortedCopy(b.byName[name]), p)
}
