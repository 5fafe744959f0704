package discovery

// Microbenches of the public Service API. The paper's tables, figures
// and ablations are `go run ./cmd/repro <experiment>` (EXPERIMENTS.md).

import (
	"math/rand"
	"testing"
)

// BenchmarkServiceInsert measures raw public-API insertion throughput.
func BenchmarkServiceInsert(b *testing.B) {
	ov, err := RandomOverlay(1000, 20, 1)
	if err != nil {
		b.Fatal(err)
	}
	svc, err := New(ov)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc.Insert(i%ov.N(), RandomID(rng), nil)
	}
}

// BenchmarkServiceLookup measures raw public-API lookup throughput.
func BenchmarkServiceLookup(b *testing.B) {
	ov, err := RandomOverlay(1000, 20, 1)
	if err != nil {
		b.Fatal(err)
	}
	svc, err := New(ov)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	keys := make([]ID, 256)
	for i := range keys {
		keys[i] = RandomID(rng)
		svc.Insert(rng.Intn(ov.N()), keys[i], nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc.Lookup(i%ov.N(), keys[i%len(keys)])
	}
}
