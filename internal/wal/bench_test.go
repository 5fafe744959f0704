package wal

import (
	"bytes"
	"fmt"
	"testing"
)

// BenchmarkWALAppend measures the raw framed-append path (no fsync):
// encode into the reused scratch buffer plus one write(2). The headline
// claim is the allocation count: 0 allocs/op in steady state.
func BenchmarkWALAppend(b *testing.B) {
	l, err := Open(b.TempDir(), Options{Sync: SyncOff})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte{0xCD}, 64)
	b.SetBytes(int64(len(payload) + recHdrLen))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppendGroupCommit drives many goroutines through the batch
// policy: every append still returns durable, but concurrent writers
// share fsyncs, so per-op cost divides by the batch size.
func BenchmarkWALAppendGroupCommit(b *testing.B) {
	l, err := Open(b.TempDir(), Options{Sync: SyncBatch})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte{0xCD}, 64)
	b.ReportAllocs()
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := l.Append(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRecovery measures Open over a populated log: segment-chain
// validation plus a full replay of every record.
func BenchmarkRecovery(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		b.Fatal(err)
	}
	const records = 10000
	for i := 0; i < records; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("op-%d-some-payload-bytes", i))); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := Open(dir, Options{Sync: SyncOff})
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		if err := l.Replay(1, func(uint64, []byte) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		if n != records {
			b.Fatalf("replayed %d records, want %d", n, records)
		}
		l.Close()
	}
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkWALAppendBatch measures the multi-record append: 64 records
// framed into one buffer, one write(2), one fsync for the whole batch.
// Per-record durable cost divides by the batch size — the shard workers'
// shared-commit path.
func BenchmarkWALAppendBatch(b *testing.B) {
	l, err := Open(b.TempDir(), Options{Sync: SyncBatch})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	const batch = 64
	payloads := make([][]byte, batch)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{0xCD}, 64)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.AppendBatch(payloads); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "records/s")
}
