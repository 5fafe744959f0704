package mpil

import (
	"math/rand"
	"testing"

	"discovery/internal/idspace"
	"discovery/internal/overlay"
	"discovery/internal/topology"
)

// BenchmarkEngineLookup times one synchronous Lookup on paper-sim's
// random overlay: 4 000 nodes of degree 100 with 3 500 keys inserted,
// each lookup from a different origin.
func BenchmarkEngineLookup(b *testing.B) {
	const nodes, keys = 4000, 3500
	rng := rand.New(rand.NewSource(1))
	g, err := topology.RandomRegular(nodes, 100, rng)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(overlay.New(g, rng, nil), DefaultConfig(), rng)
	if err != nil {
		b.Fatal(err)
	}
	ks := make([]idspace.ID, keys)
	for i := range ks {
		ks[i] = idspace.Random(rng)
		e.Insert(rng.Intn(nodes), ks[i], nil, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	msgs := 0
	for i := 0; i < b.N; i++ {
		msgs += e.Lookup(i%nodes, ks[i%keys], 0).Messages
	}
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
}
