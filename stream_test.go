package semfs_test

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	semfs "repro"
	"repro/internal/analysistest"
	"repro/internal/core"
	"repro/internal/recorder"
	"repro/internal/storage"
)

// recyclingStream yields every record of a rank through one reused Record
// and one reused args buffer, and overwrites the previous record's args
// with junk on every call to Next: a fold that keeps a pointer into a
// record it was handed reads garbage, as it would from a colfmt.Cursor.
type recyclingStream struct {
	rs   []recorder.Record
	i    int
	rec  recorder.Record
	args []int64
}

func (s *recyclingStream) Next() bool {
	for j := range s.args {
		s.args[j] = -0x5eed
	}
	s.rec = recorder.Record{Path: "/junk", Path2: "/junk", TStart: 1 << 62, Func: recorder.FuncMPIRecv}
	if s.i >= len(s.rs) {
		return false
	}
	r := s.rs[s.i]
	s.i++
	s.args = append(s.args[:0], r.Args...)
	s.rec = r
	s.rec.Args = s.args
	return true
}

func (s *recyclingStream) Record() *recorder.Record { return &s.rec }

func (s *recyclingStream) Err() error { return nil }

// TestScanRetainsNoRecord: over the registry, analyzing through recycling
// streams equals analyzing the in-memory slices, so no fold keeps a record
// (or its args) past its step.
func TestScanRetainsNoRecord(t *testing.T) {
	for _, name := range semfs.Applications() {
		res, err := semfs.Run(name, semfs.RunOptions{Ranks: 8, PPN: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		tr := res.Trace
		for _, w := range []int{1, 2} {
			label := fmt.Sprintf("%s/workers=%d", name, w)
			core.InvalidateExtraction(tr)
			want, err := semfs.AnalyzeParallelCtx(context.Background(), tr, w)
			if err != nil {
				t.Fatal(err)
			}
			got, err := semfs.AnalyzeStreams(tr.Meta, w, func(rank int) (core.RecordStream, func(), error) {
				return &recyclingStream{rs: tr.PerRank[rank]}, func() {}, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			analysistest.RequireEqual(t, label, want, got)
		}
		core.InvalidateExtraction(tr)
	}
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestAnalyzeDirAllocatesNoRecords is the allocation gate of the directory
// path on an ingest-heavy trace (ENZO-HDF5, 16 ranks × 400 steps):
// AnalyzeDirOn, and AnalyzeDirLenientOn on the same undamaged trace, may
// each allocate at most 16 B/record more than AnalyzeParallelCtx does on
// the already-loaded trace. Materializing the trace costs far more:
// LoadTraceOn alone allocates ~100 B/record (102 MB for 1.02M records), so
// a directory analysis that built []Record for a columnar rank file could
// not pass.
func TestAnalyzeDirAllocatesNoRecords(t *testing.T) {
	res, err := semfs.Run("ENZO-HDF5", semfs.RunOptions{Ranks: 16, PPN: 8, Seed: 1, Steps: 400})
	if err != nil {
		t.Fatal(err)
	}
	disk := storage.OS()
	dir := filepath.Join(t.TempDir(), "trace")
	if err := semfs.SaveTraceOn(disk, dir, res.Trace); err != nil {
		t.Fatal(err)
	}
	var tr *semfs.Trace
	load := allocated(func() { tr, err = semfs.LoadTraceOn(disk, dir, 1) })
	if err != nil {
		t.Fatal(err)
	}
	defer core.InvalidateExtraction(tr)
	var want, got, gotLenient *semfs.Analysis
	var sal *semfs.Salvage
	var werr, gerr, lerr error
	core.InvalidateExtraction(tr)
	inMemory := allocated(func() { want, werr = semfs.AnalyzeParallelCtx(context.Background(), tr, 1) })
	fromDir := allocated(func() { got, gerr = semfs.AnalyzeDirOn(disk, dir, 1) })
	lenient := allocated(func() { gotLenient, sal, lerr = semfs.AnalyzeDirLenientOn(disk, dir, 1) })
	if werr != nil || gerr != nil || lerr != nil {
		t.Fatal(werr, gerr, lerr)
	}
	analysistest.RequireEqual(t, "ENZO-HDF5", want, got)
	analysistest.RequireEqual(t, "ENZO-HDF5 lenient", want, gotLenient)
	if sal.Degraded() || sal.Full != tr.Meta.Ranks || sal.Records != tr.NumRecords() {
		t.Errorf("undamaged trace salvage: %v", sal)
	}

	n := uint64(tr.NumRecords())
	t.Logf("%d records: LoadTraceOn %.1f B/record, AnalyzeParallelCtx %.1f B/record, AnalyzeDirOn %.1f B/record, AnalyzeDirLenientOn %.1f B/record",
		n, float64(load)/float64(n), float64(inMemory)/float64(n), float64(fromDir)/float64(n), float64(lenient)/float64(n))
	for _, c := range []struct {
		name  string
		bytes uint64
	}{{"AnalyzeDirOn", fromDir}, {"AnalyzeDirLenientOn", lenient}} {
		if limit := inMemory + 16*n; c.bytes > limit {
			t.Errorf("%s allocated %d B, more than AnalyzeParallelCtx's %d B + 16 B × %d records", c.name, c.bytes, inMemory, n)
		}
	}
}
