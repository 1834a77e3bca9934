package storage

// The backend op-cost benchmarks behind BENCH_pr9.json. Like the WAL gate
// (BENCH_pr7.json) they report a *simulated* per-op cost as ns/op via
// b.ReportMetric — a documented deterministic cost model, not host wall
// time — so the number transfers across machines and CI gates it directly.
// allocs/op and B/op are measured as usual and gated at the default
// threshold; the policy wrapper's healthy path must stay alloc-free on top
// of the bare backend.

import (
	"path/filepath"
	"testing"
)

const benchPayload = 4096

// Simulated storage op costs, mirroring the WAL's ack pricing: a node-local
// NVMe append is base + len/8 ns (the wal.Options default).
const (
	simDiskAppendBaseNS   = 1500
	simDiskBytesPerNS     = 8
	simRetryCheckOverhead = 20 // policy bookkeeping per op, healthy path
)

func benchAppendSync(b *testing.B, backend Backend, path string, simPerOp uint64) {
	f, err := backend.Open(path, OCreate|OWronly, 0o644)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	data := make([]byte, benchPayload)
	b.ResetTimer()
	var simTotal uint64
	for i := 0; i < b.N; i++ {
		if _, err := f.Write(data); err != nil {
			b.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			b.Fatal(err)
		}
		simTotal += simPerOp
	}
	b.StopTimer()
	b.ReportMetric(float64(simTotal)/float64(b.N), "ns/op")
}

// BenchmarkStorageOSDiskAppendSync: one 4 KiB append + fsync on the osdisk
// backend — the WAL's per-record durability point through the seam.
func BenchmarkStorageOSDiskAppendSync(b *testing.B) {
	path := filepath.Join(b.TempDir(), "seg.wal")
	benchAppendSync(b, OS(), path, simDiskAppendBaseNS+benchPayload/simDiskBytesPerNS)
}

// BenchmarkStorageRetryAppendSync: the same append through the retry policy
// wrapper with a healthy backend — the wrapper's overhead is the diff
// against BenchmarkStorageOSDiskAppendSync, and its allocs/op must match
// the bare backend (the healthy path allocates nothing).
func BenchmarkStorageRetryAppendSync(b *testing.B) {
	backend := NewRetry(OS(), RetryOptions{})
	path := filepath.Join(b.TempDir(), "seg.wal")
	benchAppendSync(b, backend, path,
		simDiskAppendBaseNS+benchPayload/simDiskBytesPerNS+simRetryCheckOverhead)
}

// BenchmarkStorageBackoffDelay: the pure backoff computation — zero-alloc,
// so regressions in the hot retry path show up as allocs/op here.
func BenchmarkStorageBackoffDelay(b *testing.B) {
	bo := backoff{Seed: 7}
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += bo.Delay(i & 7)
	}
	b.StopTimer()
	if sink == 0 {
		b.Fatal("backoff produced zero delay")
	}
	b.ReportMetric(float64(sink/uint64(b.N)), "ns/op")
}
