package unstructured

import (
	"math/rand"
	"testing"
	"time"

	"discovery/internal/analysis"
	"discovery/internal/idspace"
	"discovery/internal/mpil"
	"discovery/internal/overlay"
	"discovery/internal/topology"
)

func fixture(t *testing.T, seed int64) (*overlay.Network, *mpil.Engine, idspace.ID) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, err := topology.RandomRegular(300, 12, rng)
	if err != nil {
		t.Fatal(err)
	}
	nw := overlay.New(g, rng, nil)
	eng, err := mpil.NewEngine(nw, mpil.DefaultConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	key := idspace.Random(rng)
	eng.Insert(0, key, nil, 0)
	return nw, eng, key
}

func holderFunc(eng *mpil.Engine, key idspace.ID) Holder {
	return func(n int) bool {
		_, ok := eng.Stored(n, key)
		return ok
	}
}

func TestFloodFindsReplicas(t *testing.T) {
	nw, eng, key := fixture(t, 1)
	res, err := Flood(nw, holderFunc(eng, key), 17, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("flood with TTL 6 missed all replicas on a 300-node overlay")
	}
	if res.Hops < 0 || res.Hops > 6 {
		t.Errorf("hops = %d", res.Hops)
	}
	if res.Messages == 0 || res.Probed == 0 {
		t.Error("no cost recorded")
	}
}

func TestFloodTTLZero(t *testing.T) {
	nw, eng, key := fixture(t, 2)
	holders := eng.HoldersOf(key)
	res, err := Flood(nw, holderFunc(eng, key), holders[0], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Hops != 0 {
		t.Errorf("TTL-0 flood at a holder: found=%v hops=%d", res.Found, res.Hops)
	}
	res, err = Flood(nw, holderFunc(eng, key), pickNonHolder(nw.N(), holders), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("TTL-0 flood away from holders found the object")
	}
}

func pickNonHolder(n int, holders []int) int {
	set := map[int]bool{}
	for _, h := range holders {
		set[h] = true
	}
	for i := 0; i < n; i++ {
		if !set[i] {
			return i
		}
	}
	return 0
}

func TestFloodCostExplodes(t *testing.T) {
	// The paper's positioning: flooding is robust but unscalable. Its
	// traffic must vastly exceed MPIL's for the same lookup.
	nw, eng, key := fixture(t, 3)
	mpilStats := eng.Lookup(17, key, 0)
	flood, err := Flood(nw, holderFunc(eng, key), 17, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !mpilStats.Found || !flood.Found {
		t.Fatal("both searches should succeed on a healthy overlay")
	}
	if flood.Messages < 5*mpilStats.Messages {
		t.Errorf("flood traffic %d not dominating MPIL's %d", flood.Messages, mpilStats.Messages)
	}
}

func TestFloodOfflineOrigin(t *testing.T) {
	nw, eng, key := fixture(t, 4)
	av := availStub{down: map[int]bool{17: true}}
	nw2, err := overlay.NewWithIDs(nw.Graph(), idsOf(nw), av)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Flood(nw2, holderFunc(eng, key), 17, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found || res.Messages != 0 {
		t.Errorf("offline origin flooded anyway: %+v", res)
	}
}

func TestFloodErrors(t *testing.T) {
	nw, eng, key := fixture(t, 5)
	if _, err := Flood(nw, holderFunc(eng, key), -1, 3, 0); err == nil {
		t.Error("negative origin accepted")
	}
	if _, err := Flood(nw, holderFunc(eng, key), 0, -1, 0); err == nil {
		t.Error("negative TTL accepted")
	}
}

func TestRandomWalkFinds(t *testing.T) {
	nw, eng, key := fixture(t, 6)
	rng := rand.New(rand.NewSource(7))
	res, err := RandomWalk(nw, holderFunc(eng, key), 17, 32, 200, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Error("32 walkers x 200 steps missed every replica on 300 nodes")
	}
	if res.Messages == 0 {
		t.Error("no walk traffic recorded")
	}
}

func TestRandomWalkErrors(t *testing.T) {
	nw, eng, key := fixture(t, 8)
	rng := rand.New(rand.NewSource(1))
	if _, err := RandomWalk(nw, holderFunc(eng, key), 999, 1, 10, 0, rng); err == nil {
		t.Error("out-of-range origin accepted")
	}
	if _, err := RandomWalk(nw, holderFunc(eng, key), 0, 0, 10, 0, rng); err == nil {
		t.Error("zero walkers accepted")
	}
}

// TestWalkHopsMatchAnalysis validates the Section 5.1 claim E[hops] = 1/C
// by measuring random walks to local maxima on a random regular overlay.
func TestWalkHopsMatchAnalysis(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n, d = 800, 20
	g, err := topology.RandomRegular(n, d, rng)
	if err != nil {
		t.Fatal(err)
	}
	nw := overlay.New(g, rng, nil)
	space := idspace.MustSpace(4)

	want, err := analysis.ExpectedHops(space, d)
	if err != nil {
		t.Fatal(err)
	}
	// The closed form uses the strict local-maximum definition; walks to
	// tie-aware maxima are faster, so use the ties variant as the lower
	// anchor.
	cTies, err := analysis.LocalMaximaProbTies(space, d)
	if err != nil {
		t.Fatal(err)
	}
	lower := 1 / cTies

	total := 0
	const trials = 3000
	for i := 0; i < trials; i++ {
		key := idspace.Random(rng)
		total += WalkToLocalMaximum(nw, space, key, rng.Intn(n), 10000, rng)
	}
	measured := float64(total) / trials
	// Expect the measurement between the ties-based expectation and a
	// generous multiple of the strict-based one (walks revisit states,
	// so they are not geometric draws; order of magnitude is the claim).
	if measured < lower*0.4 || measured > want*3 {
		t.Errorf("measured %.1f hops; analysis bounds [%.1f, %.1f]", measured, lower*0.4, want*3)
	}
}

type availStub struct {
	down map[int]bool
}

func (a availStub) Online(node int, _ time.Duration) bool { return !a.down[node] }

func idsOf(nw *overlay.Network) []idspace.ID {
	ids := make([]idspace.ID, nw.N())
	for i := range ids {
		ids[i] = nw.ID(i)
	}
	return ids
}
