package discovery

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	ov, err := RandomOverlay(400, 16, 42)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(ov)
	if err != nil {
		t.Fatal(err)
	}
	key := NewID("my-object")
	ins := svc.Insert(0, key, []byte("http://host/object"))
	if ins.Replicas < 1 {
		t.Fatal("insert stored nothing")
	}
	res := svc.Lookup(ov.N()-1, key)
	if !res.Found {
		t.Fatal("lookup failed on a healthy overlay")
	}
	holders := svc.Holders(key)
	if len(holders) != ins.Replicas {
		t.Errorf("Holders reports %d, insert reported %d", len(holders), ins.Replicas)
	}
	val, ok := svc.Value(holders[0], key)
	if !ok || string(val) != "http://host/object" {
		t.Errorf("stored value = %q, %v", val, ok)
	}
}

func TestDeleteOwnership(t *testing.T) {
	ov, err := RandomOverlay(200, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(ov)
	if err != nil {
		t.Fatal(err)
	}
	key := NewID("owned")
	ins := svc.Insert(3, key, nil)
	if got := svc.Delete(4, key); got != 0 {
		t.Errorf("non-owner deleted %d replicas", got)
	}
	if got := svc.Delete(3, key); got != ins.Replicas {
		t.Errorf("owner deleted %d, want %d", got, ins.Replicas)
	}
	if res := svc.Lookup(9, key); res.Found {
		t.Error("key found after delete")
	}
}

func TestPerturbationResistanceEndToEnd(t *testing.T) {
	// The library's headline behavior: lookups keep succeeding when a
	// quarter of the overlay is unresponsive.
	ov, err := RandomOverlay(500, 20, 11)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(ov, WithMaxFlows(20), WithPerFlowReplicas(5))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	keys := make([]ID, 40)
	for i := range keys {
		keys[i] = RandomID(rng)
		svc.Insert(0, keys[i], nil)
	}
	// Perturb 25% of nodes (never the lookup origin).
	for i := 1; i < ov.N(); i += 4 {
		ov.SetOnline(i, false)
	}
	found := 0
	for _, key := range keys {
		if svc.Lookup(0, key).Found {
			found++
		}
	}
	// Fire-and-forget, single-shot lookups: with 25% of nodes deaf, a
	// non-redundant single-path protocol would succeed about
	// 0.75^(path+1) ~ 40% of the time; MPIL's multi-path redundancy
	// must clearly beat that.
	if found < len(keys)*6/10 {
		t.Errorf("success %d/%d with 25%% of nodes perturbed, want >= 60%%", found, len(keys))
	}
}

func TestOptionValidation(t *testing.T) {
	ov, err := RandomOverlay(20, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts []Option
	}{
		{"bad digit bits", []Option{WithDigitBits(3)}},
		{"zero max flows", []Option{WithMaxFlows(0)}},
		{"zero replicas", []Option{WithPerFlowReplicas(0)}},
		{"negative hops", []Option{WithMaxHops(-1)}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(ov, tt.opts...); err == nil {
				t.Error("invalid option accepted")
			}
		})
	}
	if _, err := New(nil); err == nil {
		t.Error("nil overlay accepted")
	}
}

func TestStaticOverlayValidation(t *testing.T) {
	ids := []ID{NewID("a"), NewID("b")}
	if _, err := NewStaticOverlay([][]int{{1}, {0}}, ids[:1]); err == nil {
		t.Error("ID/adjacency length mismatch accepted")
	}
	if _, err := NewStaticOverlay([][]int{{1}, {0}}, []ID{ids[0], ids[0]}); err == nil {
		t.Error("duplicate IDs accepted")
	}
	if _, err := NewStaticOverlay([][]int{{5}, {0}}, ids); err == nil {
		t.Error("out-of-range neighbor accepted")
	}
	if _, err := NewStaticOverlay([][]int{{0}, {0}}, ids); err == nil {
		t.Error("self neighbor accepted")
	}
	ov, err := NewStaticOverlay([][]int{{1}, {0}}, ids)
	if err != nil {
		t.Fatal(err)
	}
	if ov.N() != 2 || ov.ID(0) != ids[0] {
		t.Error("overlay state wrong")
	}
}

func TestNamedOverlay(t *testing.T) {
	ov, err := NewNamedOverlay([][]int{{1}, {0}}, []string{"alice:9000", "bob:9000"})
	if err != nil {
		t.Fatal(err)
	}
	if ov.ID(0) != NewID("alice:9000") {
		t.Error("name not hashed into ID")
	}
}

func TestSetOnline(t *testing.T) {
	ov, err := RandomOverlay(50, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ov.OnlineCount() != 50 {
		t.Fatalf("OnlineCount = %d, want 50", ov.OnlineCount())
	}
	ov.SetOnline(7, false)
	if ov.Online(7, 0) {
		t.Error("node 7 still online")
	}
	if ov.OnlineCount() != 49 {
		t.Errorf("OnlineCount = %d, want 49", ov.OnlineCount())
	}
	ov.SetOnline(7, true)
	if !ov.Online(7, 0) {
		t.Error("node 7 not restored")
	}
}

func TestOverlayGenerators(t *testing.T) {
	pl, err := PowerLawOverlay(300, 5)
	if err != nil {
		t.Fatal(err)
	}
	if pl.N() != 300 {
		t.Errorf("PowerLawOverlay N = %d", pl.N())
	}
	k, err := CompleteOverlay(30, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(k.Neighbors(0)); got != 29 {
		t.Errorf("CompleteOverlay degree = %d, want 29", got)
	}
	if _, err := CompleteOverlay(0, 1); err == nil {
		t.Error("empty complete overlay accepted")
	}
	if _, err := RandomOverlay(10, 11, 1); err == nil {
		t.Error("impossible degree accepted")
	}
}

func TestDeterministicService(t *testing.T) {
	run := func() []int {
		ov, err := RandomOverlay(200, 10, 9)
		if err != nil {
			t.Fatal(err)
		}
		svc, err := New(ov, WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		svc.Insert(0, NewID("det"), nil)
		return svc.Holders(NewID("det"))
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic holder count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic holders")
		}
	}
}

func TestIDHelpers(t *testing.T) {
	id := NewID("x")
	parsed, err := ParseID(id.Hex())
	if err != nil || parsed != id {
		t.Errorf("ParseID round trip failed: %v", err)
	}
	if _, err := ParseID("nope"); err == nil {
		t.Error("bad hex accepted")
	}
}

// TestServiceHeapFlat pins that a long-lived Service keeps no per-request
// state once a request returns: the heap it retains after 50 000 lookups
// is the heap it retained before them, give or take allocator noise.
func TestServiceHeapFlat(t *testing.T) {
	ov, err := RandomOverlay(1000, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(ov)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	keys := make([]ID, 200)
	for i := range keys {
		keys[i] = RandomID(rng)
		svc.Insert(rng.Intn(ov.N()), keys[i], []byte("v"))
	}
	lookups := func(n int) {
		for i := 0; i < n; i++ {
			svc.Lookup(i%ov.N(), keys[i%len(keys)])
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	lookups(1000)
	before := heap()
	lookups(50000)
	after := heap()
	runtime.KeepAlive(svc)
	t.Logf("retained heap %d B before, %d B after", before, after)
	const limit = 2 << 20
	if after > before && after-before >= limit {
		t.Errorf("retained heap grew %d B over 50 000 lookups (%d -> %d), want < %d", after-before, before, after, limit)
	}
}

// TestDuplicateSuppressionSavesLookupMessages is the static half of
// WithDuplicateSuppression's claim: on a stable overlay, nodes that
// discard request copies they have already seen answer the same lookups
// with fewer messages. Both services run the same inserts and lookups
// (same keys, same origins, same seed) on one power-law overlay, with
// suppression on and off; `repro ablations` makes the same comparison.
func TestDuplicateSuppressionSavesLookupMessages(t *testing.T) {
	const nodes, pairs = 1500, 100
	ov, err := PowerLawOverlay(nodes, 11)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	keys := make([]ID, pairs)
	inserters := make([]int, pairs)
	lookers := make([]int, pairs)
	for i := range keys {
		keys[i] = NewID(fmt.Sprintf("ds-%d", i))
		inserters[i] = rng.Intn(nodes)
		lookers[i] = rng.Intn(nodes)
	}
	lookups := func(ds bool) (msgs, found int) {
		svc, err := New(ov, WithPerFlowReplicas(3), WithDuplicateSuppression(ds), WithSeed(11))
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			svc.Insert(inserters[i], k, nil)
		}
		for i, k := range keys {
			res := svc.Lookup(lookers[i], k)
			msgs += res.Messages
			if res.Found {
				found++
			}
		}
		return msgs, found
	}
	onMsgs, onFound := lookups(true)
	offMsgs, offFound := lookups(false)
	t.Logf("%d lookups: suppression on %d messages (%d found), off %d messages (%d found)",
		pairs, onMsgs, onFound, offMsgs, offFound)
	if onMsgs >= offMsgs {
		t.Fatalf("duplicate suppression sent %d lookup messages, no fewer than the %d without it", onMsgs, offMsgs)
	}
}
