package colfmt

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/recorder"
	"repro/internal/recorder/v1test"
	"repro/internal/storage"
)

// The decode benchmarks run on a >= 1M-op synthetic stream (the acceptance
// bar for the columnar format) encoded once per process.
const benchRecords = 1_000_000

var benchOnce struct {
	sync.Once
	recs []recorder.Record
	v1   []byte
	col  []byte
}

func benchStream(tb testing.TB) ([]recorder.Record, []byte, []byte) {
	benchOnce.Do(func() {
		benchOnce.recs = genStream(0, benchRecords, 99)
		var v1 bytes.Buffer
		if err := v1test.EncodeRankStream(&v1, 0, benchOnce.recs); err != nil {
			tb.Fatal(err)
		}
		benchOnce.v1 = v1.Bytes()
		var col bytes.Buffer
		if err := EncodeStream(&col, 0, benchOnce.recs, EncodeOptions{}); err != nil {
			tb.Fatal(err)
		}
		benchOnce.col = col.Bytes()
	})
	return benchOnce.recs, benchOnce.v1, benchOnce.col
}

// BenchmarkColumnarDecode compares three decoders on the same 1M-op
// stream: the test-support v1 record-framed decoder, the tests'
// materializing walk of a columnar cursor, and the columnar zero-copy
// cursor. Bytes/op and allocs/op are the gated
// regression surface (BENCH_pr10.json); MB/s and records/s land as
// informational throughput metrics.
func BenchmarkColumnarDecode(b *testing.B) {
	recs, v1, col := benchStream(b)
	report := func(b *testing.B, wire []byte) {
		b.SetBytes(int64(len(wire)))
		b.ReportMetric(float64(len(recs))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	}
	b.Run("v1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, got, err := v1test.DecodeRankStream(bytes.NewReader(v1))
			if err != nil || len(got) != len(recs) {
				b.Fatalf("decoded %d records, err %v", len(got), err)
			}
		}
		report(b, v1)
	})
	b.Run("columnar-materialize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := NewReader(col)
			if err != nil {
				b.Fatal(err)
			}
			got, err := r.materialize(r.Cursor())
			if err != nil || len(got) != len(recs) {
				b.Fatalf("decoded %d records, err %v", len(got), err)
			}
		}
		report(b, col)
	})
	b.Run("columnar-cursor", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := NewReader(col)
			if err != nil {
				b.Fatal(err)
			}
			c := r.Cursor()
			var n int
			var tsum uint64
			for c.Next() {
				rec := c.Record()
				tsum += rec.TStart
				n++
			}
			if c.Err() != nil || n != len(recs) {
				b.Fatalf("cursor yielded %d records, err %v", n, c.Err())
			}
			if tsum == 0 {
				b.Fatal("timestamps summed to zero")
			}
		}
		report(b, col)
	})
}

// BenchmarkLoadDirParallel measures the sharded dir load: 8 columnar rank
// files decoded across the worker pool, against the same load pinned to one
// worker.
func BenchmarkLoadDirParallel(b *testing.B) {
	const ranks, perRank = 8, 125_000
	dir := b.TempDir()
	tr := mkTrace(ranks, perRank, 77)
	if err := SaveDirOn(storage.OS(), dir, tr); err != nil {
		b.Fatal(err)
	}
	var wire int64
	for rank := 0; rank < ranks; rank++ {
		n, err := storage.OS().Stat(filepath.Join(dir, recorder.RankFileName(rank)))
		if err != nil {
			b.Fatal(err)
		}
		wire += n
	}
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(wire)
			for i := 0; i < b.N; i++ {
				got, err := LoadDirOn(storage.OS(), dir, workers)
				if err != nil {
					b.Fatal(err)
				}
				if len(got.PerRank) != ranks {
					b.Fatal("short load")
				}
			}
			b.ReportMetric(float64(ranks*perRank)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// TestColumnarDecodeAllocRatio is the deterministic half of the >= 10x
// fewer-allocs acceptance bar: wall-clock ratios live in the benchmarks
// (and BENCH_pr10.json), but allocation counts are exact, so the ratio
// between the v1 decoder and the zero-copy cursor is asserted here on every
// test run. The stream is smaller than the benchmark's for test-time
// budget; per-record allocation behavior does not depend on length.
func TestColumnarDecodeAllocRatio(t *testing.T) {
	recs := genStream(0, 50_000, 55)
	var v1buf, colbuf bytes.Buffer
	if err := v1test.EncodeRankStream(&v1buf, 0, recs); err != nil {
		t.Fatal(err)
	}
	if err := EncodeStream(&colbuf, 0, recs, EncodeOptions{}); err != nil {
		t.Fatal(err)
	}
	v1, col := v1buf.Bytes(), colbuf.Bytes()
	v1Allocs := testing.AllocsPerRun(3, func() {
		if _, got, err := v1test.DecodeRankStream(bytes.NewReader(v1)); err != nil || len(got) != len(recs) {
			t.Fatalf("v1 decode: %d records, %v", len(got), err)
		}
	})
	cursorAllocs := testing.AllocsPerRun(3, func() {
		r, err := NewReader(col)
		if err != nil {
			t.Fatal(err)
		}
		c := r.Cursor()
		n := 0
		for c.Next() {
			n++
		}
		if c.Err() != nil || n != len(recs) {
			t.Fatalf("cursor: %d records, %v", n, c.Err())
		}
	})
	matAllocs := testing.AllocsPerRun(3, func() {
		r, err := NewReader(col)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := r.materialize(r.Cursor()); err != nil || len(got) != len(recs) {
			t.Fatalf("materialize: %d records, %v", len(got), err)
		}
	})
	t.Logf("allocs per decode of %d records: v1=%.0f cursor=%.0f materialize=%.0f",
		len(recs), v1Allocs, cursorAllocs, matAllocs)
	if cursorAllocs*10 > v1Allocs {
		t.Fatalf("zero-copy cursor allocs %.0f not >= 10x below v1's %.0f", cursorAllocs, v1Allocs)
	}
	if matAllocs*10 > v1Allocs {
		t.Fatalf("materialize allocs %.0f not >= 10x below v1's %.0f", matAllocs, v1Allocs)
	}
}
