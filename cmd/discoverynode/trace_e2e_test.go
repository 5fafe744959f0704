package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"testing"
	"time"

	discovery "discovery"
	"discovery/internal/cluster"
	"discovery/internal/server"
	"discovery/internal/testnet"
	"discovery/internal/trace"
	"discovery/internal/wire"
)

// This file is the end-to-end proof of request tracing across the
// cluster: three real discoverynode processes with sampling at 1-in-1,
// driven three ways —
//
//   - route-direct with a caller-stamped trace ID: the owner must record
//     a joined trace whose spans (queue wait, WAL commit, shard exec,
//     response flush) sum to no more than the measured client latency;
//   - relayed through a non-owner: the relay's forward/peer-hop spans
//     and the owner's route_exec span must share one trace ID, i.e. the
//     trace joins across processes via the wire trailer;
//   - a stale-view TRoute (wrong fingerprint) retried with the same
//     trace ID against the owner: the bounce and the successful
//     execution must join under that one ID across both processes.

// fetchTraces pulls one node's /debug/traces output.
func fetchTraces(t *testing.T, addr string) []trace.JSONTrace {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/debug/traces?n=0")
	if err != nil {
		t.Fatalf("fetch traces from %s: %v", addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch traces from %s: HTTP %d", addr, resp.StatusCode)
	}
	var body struct {
		Traces []trace.JSONTrace `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode traces from %s: %v", addr, err)
	}
	return body.Traces
}

// findTrace retries briefly until trace id holds a span of every wanted
// kind: the response-flush span is recorded by the writer goroutine
// right after the vectored write, which can race the client's read, so
// the trace can be listed before that span joins it. It returns the last
// sighting of the trace, complete or not, and whether it was seen at all;
// the caller's checks name whatever is still missing.
func findTrace(t *testing.T, addr, id string, want ...string) (trace.JSONTrace, bool) {
	t.Helper()
	var last trace.JSONTrace
	seen := false
	for attempt := 0; attempt < 20; attempt++ {
		for _, tr := range fetchTraces(t, addr) {
			if tr.ID != id {
				continue
			}
			last, seen = tr, true
			kinds := spanKinds(tr)
			complete := true
			for _, k := range want {
				if len(kinds[k]) == 0 {
					complete = false
				}
			}
			if complete {
				return tr, true
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	return last, seen
}

// flattenSpans walks a trace's span tree into a flat list.
func flattenSpans(spans []*trace.JSONSpan, out *[]*trace.JSONSpan) {
	for _, sp := range spans {
		*out = append(*out, sp)
		flattenSpans(sp.Spans, out)
	}
}

func spanKinds(tr trace.JSONTrace) map[string][]*trace.JSONSpan {
	var flat []*trace.JSONSpan
	flattenSpans(tr.Spans, &flat)
	byKind := make(map[string][]*trace.JSONSpan)
	for _, sp := range flat {
		byKind[sp.Kind] = append(byKind[sp.Kind], sp)
	}
	return byKind
}

// rawRoute sends one hand-built TRoute frame to addr and returns the
// decoded response — the only way to present a deliberately stale
// fingerprint while keeping a chosen trace ID.
func rawRoute(t *testing.T, addr string, m *wire.Msg) *wire.Msg {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	frame, err := m.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	var scratch []byte
	body, err := wire.ReadFrame(bufio.NewReader(nc), &scratch)
	if err != nil {
		t.Fatal(err)
	}
	var resp wire.Msg
	if err := resp.Decode(body); err != nil {
		t.Fatal(err)
	}
	return &resp
}

func TestClusterTracing(t *testing.T) {
	bin := buildNode(t)
	peerAddrs := testnet.ReserveAddrs(t, 3)

	sorted := append([]string(nil), peerAddrs...)
	sort.Strings(sorted)
	regionOf := make(map[string]int, 3)
	for r, a := range sorted {
		regionOf[a] = r
	}
	ownerRegion := func(name string) int { return discovery.OwnerOf(discovery.NewID(name), 3) }

	procs := make([]*nodeProc, 3)
	for i := range procs {
		procs[i] = startNode(t, bin, peerAddrs[i], peerAddrs, t.TempDir(),
			"-replication", "1", "-trace-sample", "1", "-trace-slow", "1ns")
	}
	procByRegion := make([]*nodeProc, 3)
	for i, p := range procs {
		procByRegion[regionOf[peerAddrs[i]]] = p
	}

	// The cluster-smart client needs every member's client address, which
	// spreads by probe gossip; poll until the table is complete.
	cc, err := cluster.Dial(cluster.Config{Seeds: []string{procs[0].clientAddr}})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	var hash uint64
	for deadline := time.Now().Add(15 * time.Second); ; {
		var members []string
		hash, members = cc.Members()
		known := 0
		for _, m := range members {
			if m != "" {
				known++
			}
		}
		if known == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("member table never completed: %v", members)
		}
		time.Sleep(200 * time.Millisecond)
		cc.Refresh() //nolint:errcheck // retried until the deadline
	}

	// Phase 1: route-direct insert with a caller-stamped trace ID. The
	// owner must record a joined trace whose per-stage spans fit inside
	// the measured end-to-end service time.
	const directID uint64 = 0xABCDEF0123456789
	directKey := "trace-direct-key"
	t0 := time.Now()
	if _, err := cc.InsertTraced(cluster.OriginAuto, discovery.NewID(directKey), []byte(directKey), directID); err != nil {
		t.Fatalf("traced route-direct insert: %v", err)
	}
	e2e := time.Since(t0)
	owner := procByRegion[ownerRegion(directKey)]
	tr, ok := findTrace(t, owner.metricsAddr, fmt.Sprintf("%016x", directID), "queue_wait", "shard_exec", "wal_commit", "resp_flush")
	if !ok {
		t.Fatalf("trace %016x not found on the owner's /debug/traces", uint64(directID))
	}
	byKind := spanKinds(tr)
	var flat []*trace.JSONSpan
	flattenSpans(tr.Spans, &flat)
	if len(flat) < 4 {
		t.Fatalf("joined trace has %d spans, want >= 4: %+v", len(flat), flat)
	}
	// resp_flush is excluded from the e2e bound: its closing timestamp is
	// read by the writer goroutine after writev returns, but the client
	// can have the reply as soon as the kernel has the bytes, so under
	// CPU contention the span legitimately extends past the client's
	// measured window. The other stages all end before the reply leaves
	// the server, so their sum must fit inside what the client measured.
	var spanSum int64
	for _, sp := range flat {
		if sp.Kind != "resp_flush" {
			spanSum += sp.Dur
		}
	}
	for _, kind := range []string{"queue_wait", "shard_exec", "wal_commit", "resp_flush"} {
		if len(byKind[kind]) == 0 {
			kinds := make([]string, 0, len(byKind))
			for k := range byKind {
				kinds = append(kinds, k)
			}
			t.Fatalf("trace is missing a %s span (has %v)", kind, kinds)
		}
	}
	if spanSum > int64(e2e) {
		for _, sp := range flat {
			t.Logf("  span %s dur=%v start=%d", sp.Kind, time.Duration(sp.Dur), sp.Start)
		}
		t.Fatalf("pre-flush span sum %v exceeds measured e2e time %v", time.Duration(spanSum), e2e)
	}
	t.Logf("route-direct trace: %d spans, %v pre-flush within e2e %v", len(flat), time.Duration(spanSum), e2e)

	// Phase 2: relayed insert through a non-owner. Sampling is 1-in-1, so
	// the relay traces it and the trailer carries the ID to the owner:
	// the relay's forward span and the owner's route_exec span must join.
	relayKey := "trace-relay-key"
	relayRegion := ownerRegion(relayKey)
	var relay *nodeProc
	for i, p := range procs {
		if regionOf[peerAddrs[i]] != relayRegion {
			relay = p
			break
		}
	}
	rc, err := server.Dial(relay.clientAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := rc.Insert(server.OriginAuto, discovery.NewID(relayKey), []byte(relayKey)); err != nil {
		t.Fatalf("relayed insert: %v", err)
	}
	var relayID string
	for attempt := 0; relayID == "" && attempt < 20; attempt++ {
		for _, tr := range fetchTraces(t, relay.metricsAddr) {
			if kinds := spanKinds(tr); len(kinds["forward"]) > 0 {
				relayID = tr.ID
				if len(kinds["peer_call"]) == 0 {
					t.Errorf("relay trace %s has forward but no peer_call span", tr.ID)
				}
			}
		}
		if relayID == "" {
			time.Sleep(100 * time.Millisecond)
		}
	}
	if relayID == "" {
		t.Fatal("no forwarded trace recorded on the relay node")
	}
	ownerTr, ok := findTrace(t, procByRegion[relayRegion].metricsAddr, relayID, "route_exec")
	if !ok {
		t.Fatalf("relayed trace %s did not join on the owner (no spans there)", relayID)
	}
	if kinds := spanKinds(ownerTr); len(kinds["route_exec"]) == 0 {
		t.Fatalf("owner side of relayed trace %s has no route_exec span: %+v", relayID, ownerTr.Spans)
	}
	t.Logf("relayed trace %s joined across relay and owner", relayID)

	// Phase 3: stale-view retry. A hand-built TRoute with a bogus
	// fingerprint and a fixed trace ID is bounced with TWrongView by one
	// node, then retried — same ID — against the owner with the corrected
	// fingerprint. The bounce and the execution must join under one ID
	// across the two processes.
	const retryID uint64 = 0x5EEDFACE00C0FFEE
	retryKey := "trace-retry-key"
	retryRegion := ownerRegion(retryKey)
	var stale *nodeProc
	for i, p := range procs {
		if regionOf[peerAddrs[i]] != retryRegion {
			stale = p
			break
		}
	}
	req := &wire.Msg{
		Type: wire.TRoute, ReqID: 1, RouteKind: wire.TInsert,
		Cluster: ^hash, // deliberately stale fingerprint
		Key:     discovery.NewID(retryKey), Origin: wire.OriginAuto, Value: []byte(retryKey),
		Traced: true, Trace: retryID,
	}
	resp := rawRoute(t, stale.clientAddr, req)
	if resp.Type != wire.TWrongView {
		t.Fatalf("stale TRoute got %v, want TWrongView", resp.Type)
	}
	if resp.Cluster != hash {
		t.Fatalf("TWrongView advertises fingerprint %016x, want %016x", resp.Cluster, hash)
	}
	req.ReqID = 2
	req.Cluster = resp.Cluster // the refresh a real client would do
	resp = rawRoute(t, procByRegion[retryRegion].clientAddr, req)
	if resp.Type != wire.TInsertOK {
		t.Fatalf("retried TRoute got %v (%s), want TInsertOK", resp.Type, resp.ErrorText())
	}
	staleTr, ok := findTrace(t, stale.metricsAddr, fmt.Sprintf("%016x", uint64(retryID)), "wrong_view")
	if !ok {
		t.Fatal("no spans for the stale-view bounce on the refusing node")
	}
	if kinds := spanKinds(staleTr); len(kinds["wrong_view"]) == 0 {
		t.Fatalf("refusing node's trace has no wrong_view span: %+v", staleTr.Spans)
	}
	retryTr, ok := findTrace(t, procByRegion[retryRegion].metricsAddr, fmt.Sprintf("%016x", uint64(retryID)), "shard_exec")
	if !ok {
		t.Fatal("retried request left no spans on the owner")
	}
	if kinds := spanKinds(retryTr); len(kinds["shard_exec"]) == 0 {
		t.Fatalf("owner's retry trace has no shard_exec span: %+v", retryTr.Spans)
	}
	t.Logf("stale-view retry kept trace %016x across bounce and execution", uint64(retryID))
}
