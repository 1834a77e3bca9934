package wal

// The WAL payoff benchmarks behind BENCH_pr7.json. Both report the
// *simulated* per-write cost as ns/op (via b.ReportMetric), which is fully
// deterministic for a fixed iteration count — unlike host wall time it
// transfers across machines, so CI gates it directly: the WAL's local
// acknowledgement must stay an order of magnitude under the strong-
// semantics PFS round trip. allocs/op and B/op are measured as usual.

import (
	"testing"

	"repro/internal/payload"
	"repro/internal/pfs"
)

const benchBlock = 4096

// BenchmarkWALWriteAck: acknowledgement cost of a WAL-fronted write — the
// local append's modeled cost, not the PFS round trip the same call makes.
func BenchmarkWALWriteAck(b *testing.B) {
	fs := pfs.New(pfs.Options{Semantics: pfs.Strong})
	c := fs.NewClient(0)
	l, err := Open(0, Options{Dir: b.TempDir(), NoFsync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	var now uint64 = 10
	h, _, err := c.Open("/bench.dat", pfs.OCreat|pfs.ORdwr, now)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, benchBlock)
	var simTotal uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 10
		cost, err := l.Write(h, int64(i)*benchBlock, payload.Bytes(data), now)
		if err != nil {
			b.Fatal(err)
		}
		simTotal += cost
	}
	b.StopTimer()
	b.ReportMetric(float64(simTotal)/float64(b.N), "ns/op")
}

// BenchmarkWALDirectWrite: the same write straight against the PFS under
// strong semantics — the per-operation lock round trip the WAL hides.
func BenchmarkWALDirectWrite(b *testing.B) {
	fs := pfs.New(pfs.Options{Semantics: pfs.Strong})
	c := fs.NewClient(0)
	var now uint64 = 10
	h, _, err := c.Open("/bench.dat", pfs.OCreat|pfs.ORdwr, now)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, benchBlock)
	var simTotal uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 10
		cost, err := h.Write(int64(i)*benchBlock, payload.Bytes(data), now)
		if err != nil {
			b.Fatal(err)
		}
		simTotal += cost
	}
	b.StopTimer()
	b.ReportMetric(float64(simTotal)/float64(b.N), "ns/op")
}
