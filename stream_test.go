package semfs_test

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	semfs "repro"
	"repro/internal/analysistest"
	"repro/internal/core"
	"repro/internal/pfs"
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

// TestAnalyzeDirRetainsLittle gates what an Analysis holds once the scan
// behind it is gone (ENZO-HDF5, 16 ranks × 400 steps, as above): the heap
// that stays live after AnalyzeDirOn returns, over a forced collection,
// may be at most 20 B per record. Its bulk is the conflict lists, so the
// bound holds only while a file's equal session and commit lists share
// one backing array of 128-byte Conflicts: with a list per model of
// 176-byte Conflicts the same Analysis held 32.5 B/record.
func TestAnalyzeDirRetainsLittle(t *testing.T) {
	res, err := semfs.Run("ENZO-HDF5", semfs.RunOptions{Ranks: 16, PPN: 8, Seed: 1, Steps: 400})
	if err != nil {
		t.Fatal(err)
	}
	disk := storage.OS()
	dir := filepath.Join(t.TempDir(), "trace")
	if err := semfs.SaveTraceOn(disk, dir, res.Trace); err != nil {
		t.Fatal(err)
	}
	n := res.Trace.NumRecords()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	an, err := semfs.AnalyzeDirOn(disk, dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n)
	runtime.KeepAlive(an)
	t.Logf("%d records: the Analysis retains %.1f B/record", n, retained)
	if retained > 20 {
		t.Errorf("the Analysis retains %.1f B/record, want at most 20", retained)
	}
}

// TestConflictListsShareStorage: for every registry app at one and two
// workers, each file's commit list is a subsequence of its session list
// (a close is a commit, so every commit conflict is a session conflict),
// equal lists share one backing array, and both lists equal what a
// single-model sweep finds. No registry file keeps two non-empty lists
// that differ, so a two-rank exchange with one fsynced write covers that
// case: its file must keep two separate, correct lists.
func TestConflictListsShareStorage(t *testing.T) {
	for _, name := range semfs.Applications() {
		res, err := semfs.Run(name, semfs.RunOptions{Ranks: 8, PPN: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		checkConflictLists(t, name, res.Trace)
	}

	res, err := semfs.RunCustom("fsync-exchange", semfs.RunOptions{Ranks: 2, PPN: 1, Seed: 1}, func(ctx *semfs.Ctx) error {
		fd, err := ctx.OS.Open("/exchange.dat", recorder.OCreat|recorder.ORdwr, 0o644)
		if err != nil {
			return err
		}
		// Rank 0 writes seven blocks that rank 1 reads back after a
		// barrier. Only the sixth write is fsynced, which orders its pair
		// under commit semantics but not under session semantics. The
		// sweep meets the pairs in offset order, so the lists split when
		// the shared one holds five conflicts and has room for more: a
		// commit list that kept writing into the session list's backing
		// array would overwrite the session list's sixth conflict.
		for i := range 7 {
			fsync := i == 5
			off := int64(i) * 4096
			if ctx.Rank == 0 {
				if _, err := ctx.OS.Pwrite(fd, make([]byte, 4096), off); err != nil {
					return err
				}
				if fsync {
					if err := ctx.OS.Fsync(fd); err != nil {
						return err
					}
				}
			}
			ctx.MPI.Barrier()
			if ctx.Rank == 1 {
				if _, err := ctx.OS.Pread(fd, 4096, off); err != nil {
					return err
				}
			}
			ctx.MPI.Barrier()
		}
		return ctx.OS.Close(fd)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, an := range checkConflictLists(t, "fsync-exchange", res.Trace) {
		session, commit := an.SessionConflicts["/exchange.dat"], an.CommitConflicts["/exchange.dat"]
		if len(session) != 7 || len(commit) != 6 {
			t.Errorf("fsync-exchange: %d session and %d commit conflicts, want 7 and 6", len(session), len(commit))
		}
	}
}

// checkConflictLists analyzes tr at one and two workers, checks every
// file's session and commit lists as TestConflictListsShareStorage
// describes, and returns the analyses.
func checkConflictLists(t *testing.T, name string, tr *semfs.Trace) []*semfs.Analysis {
	t.Helper()
	defer core.InvalidateExtraction(tr)
	fas, err := core.ExtractSharedCtx(context.Background(), tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantSession, _ := core.ConflictsOverFiles(fas, pfs.Session)
	wantCommit, _ := core.ConflictsOverFiles(fas, pfs.Commit)
	var out []*semfs.Analysis
	for _, w := range []int{1, 2} {
		how := fmt.Sprintf("%s workers=%d", name, w)
		an, err := semfs.AnalyzeParallelCtx(context.Background(), tr, w)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, an)
		if !reflect.DeepEqual(an.SessionConflicts, wantSession) || !reflect.DeepEqual(an.CommitConflicts, wantCommit) {
			t.Errorf("%s: conflict lists differ from single-model sweeps", how)
		}
		for path, commit := range an.CommitConflicts {
			if _, ok := an.SessionConflicts[path]; !ok {
				t.Errorf("%s: %s has %d commit conflicts and no session conflict", how, path, len(commit))
			}
		}
		for path, session := range an.SessionConflicts {
			commit := an.CommitConflicts[path]
			switch {
			case !isSubsequence(commit, session):
				t.Errorf("%s: %s: %d commit conflicts are not a subsequence of the %d session conflicts", how, path, len(commit), len(session))
			case len(commit) == len(session) && &commit[0] != &session[0]:
				t.Errorf("%s: %s: equal commit and session lists of %d conflicts do not share storage", how, path, len(commit))
			case len(commit) > 0 && len(commit) < len(session) && &commit[0] == &session[0]:
				t.Errorf("%s: %s: split lists (%d commit, %d session conflicts) share storage", how, path, len(commit), len(session))
			}
		}
	}
	return out
}

// isSubsequence reports whether sub's conflicts appear in cs in order.
func isSubsequence(sub, cs []core.Conflict) bool {
	i := 0
	for _, c := range cs {
		if i < len(sub) && sub[i] == c {
			i++
		}
	}
	return i == len(sub)
}
