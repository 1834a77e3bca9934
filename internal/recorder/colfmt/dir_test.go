package colfmt

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/recorder"
	"repro/internal/recorder/colwire"
	"repro/internal/recorder/v1test"
	"repro/internal/storage"
)

func mkRec(rank int, layer recorder.Layer, fn recorder.Func, ts, te uint64, path string, args ...int64) recorder.Record {
	return recorder.Record{Rank: int32(rank), Layer: layer, Func: fn, TStart: ts, TEnd: te, Path: path, Args: args}
}

// writeColumnarRank writes a columnar stream declaring streamRank into
// fileRank's file under dir.
func writeColumnarRank(t *testing.T, dir string, fileRank, streamRank int, recs []recorder.Record) {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeStream(&buf, streamRank, recs, EncodeOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, recorder.RankFileName(fileRank)), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeV1Rank writes a v1 stream declaring streamRank into fileRank's file
// under dir.
func writeV1Rank(t *testing.T, dir string, fileRank, streamRank int, recs []recorder.Record) {
	t.Helper()
	var buf bytes.Buffer
	if err := v1test.EncodeRankStream(&buf, streamRank, recs); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, recorder.RankFileName(fileRank)), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// savers write a trace directory in each format: columnar through
// SaveDirOn, v1 through the test-support writer.
var savers = []struct {
	name string
	save func(dir string, tr *recorder.Trace) error
}{
	{"columnar", func(dir string, tr *recorder.Trace) error { return SaveDirOn(storage.OS(), dir, tr) }},
	{"v1", v1test.SaveDir},
}

// writeMeta creates dir holding only the given trace.meta.
func writeMeta(t *testing.T, dir, meta string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "trace.meta"), []byte(meta), 0o644); err != nil {
		t.Fatal(err)
	}
}

// loadLenient runs the degraded-mode scan semfs.AnalyzeDirLenientOn runs —
// MetaOn, then every rank through OpenRanksLenientOn's opener across
// workers — and returns the trace of what the lenient streams yielded
// beside the Salvage fold.
func loadLenient(b storage.Backend, dir string, workers int) (*recorder.Trace, *recorder.Salvage, error) {
	meta, err := MetaOn(b, dir)
	if err != nil {
		return nil, nil, err
	}
	open, salvage := OpenRanksLenientOn(b, dir, meta.Ranks)
	tracers := make([]*recorder.RankTracer, meta.Ranks)
	errs := make([]error, meta.Ranks)
	_ = core.ParallelForCtx(context.Background(), meta.Ranks, workers, func(rank int) {
		tracers[rank] = recorder.NewRankTracer(rank)
		s, release, err := open(rank)
		if err != nil {
			errs[rank] = err
			return
		}
		for s.Next() {
			r := s.Record()
			tracers[rank].Emit(*r, r.Args)
		}
		errs[rank] = s.Err()
		release()
	})
	for rank, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("rank %d: a lenient stream failed: %w", rank, err)
		}
	}
	tr, err := recorder.TraceOf(meta, tracers)
	if err != nil {
		return nil, nil, err
	}
	sal, err := salvage()
	return tr, sal, err
}

func TestSaveDirErrors(t *testing.T) {
	dir := t.TempDir()
	// Unwritable destination (a file standing where the dir should be).
	blocker := filepath.Join(dir, "blocked")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	tr := traceOf(recorder.Meta{Ranks: 1}, [][]recorder.Record{{}})
	for _, f := range savers {
		if err := f.save(filepath.Join(blocker, "sub"), tr); err == nil {
			t.Fatalf("%s: saving into a file path should fail", f.name)
		}
	}
}

func TestLoadDirErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad")
	writeMeta(t, bad, "{not json")
	zero := filepath.Join(dir, "zero")
	writeMeta(t, zero, `{"Ranks":0}`)
	norank := filepath.Join(dir, "norank")
	writeMeta(t, norank, `{"Ranks":1}`)
	wrong := filepath.Join(dir, "wrong")
	writeMeta(t, wrong, `{"Ranks":1}`)
	writeColumnarRank(t, wrong, 0, 7, nil)
	empty := filepath.Join(dir, "empty")
	writeMeta(t, empty, `{"Ranks":1}`)
	if err := os.WriteFile(filepath.Join(empty, recorder.RankFileName(0)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	v1 := filepath.Join(dir, "v1")
	writeMeta(t, v1, `{"Ranks":1}`)
	writeV1Rank(t, v1, 0, 0, nil)
	// A forged rank count must fail before anything is sized by it: the
	// first overflows a slice length, the second would exhaust memory.
	huge := filepath.Join(dir, "huge")
	writeMeta(t, huge, `{"Ranks": 4000000000000}`)
	large := filepath.Join(dir, "large")
	writeMeta(t, large, `{"Ranks": 50000000}`)

	for _, tc := range []struct {
		name, dir string
		// Substrings the strict and lenient errors must contain. A lenient
		// scan of a one-rank trace whose stream is unusable salvages
		// nothing, so it fails with that instead of the stream's error.
		strict, lenient string
	}{
		{"missing dir", filepath.Join(dir, "missing"), "trace.meta", "trace.meta"},
		{"bad json", bad, "parsing trace.meta", "parsing trace.meta"},
		{"zero ranks", zero, "no ranks", "no ranks"},
		{"missing rank file", norank, "reading rank 0", "nothing salvageable"},
		{"wrong-rank stream", wrong, "holds rank 7", "nothing salvageable"},
		{"empty rank file", empty, "reading rank 0: recorder: trace stream truncated", "nothing salvageable"},
		{"v1 stream", v1, `reading rank 0: colfmt: bad magic "SEMFSTR1`, "nothing salvageable"},
		{"ranks overflow", huge, "4000000000000 ranks (limit", "4000000000000 ranks (limit"},
		{"ranks too many", large, "50000000 ranks (limit", "50000000 ranks (limit"},
	} {
		if _, err := LoadDirOn(storage.OS(), tc.dir, 2); err == nil || !strings.Contains(err.Error(), tc.strict) {
			t.Errorf("%s: strict load err = %v, want one containing %q", tc.name, err, tc.strict)
		}
		if _, _, err := loadLenient(storage.OS(), tc.dir, 2); err == nil || !strings.Contains(err.Error(), tc.lenient) {
			t.Errorf("%s: lenient load err = %v, want one containing %q", tc.name, err, tc.lenient)
		}
	}
}

// TestLoadDirLenient pins degraded-mode scanning: a torn stream keeps the
// blocks before the cut with exact Dropped accounting, missing, wrong-rank
// and v1 streams are unreadable, and only unusable metadata or zero
// surviving records fail.
func TestLoadDirLenient(t *testing.T) {
	mk := func(rank int) []recorder.Record {
		return []recorder.Record{
			mkRec(rank, recorder.LayerPOSIX, recorder.FuncOpen, 10, 20, "/f", recorder.OCreat, 0o644, 3),
			mkRec(rank, recorder.LayerPOSIX, recorder.FuncPwrite, 30, 40, "/f", 3, 64, 0, 64),
			mkRec(rank, recorder.LayerPOSIX, recorder.FuncClose, 50, 55, "", 3),
		}
	}
	tr := traceOf(recorder.Meta{App: "x", Ranks: 3}, [][]recorder.Record{mk(0), mk(1), mk(2)})
	dir := t.TempDir()
	if err := SaveDirOn(storage.OS(), dir, tr); err != nil {
		t.Fatal(err)
	}

	// Clean load: full everywhere, not degraded.
	got, sal, err := loadLenient(storage.OS(), dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sal.Degraded() || sal.Full != 3 || sal.Records != 9 || sal.Salvaged != 0 {
		t.Fatalf("clean load salvage: %v", sal)
	}

	// Re-encode rank 1 with one record a block and cut it inside its second
	// block; delete rank 2 entirely.
	var one bytes.Buffer
	if err := EncodeStream(&one, 1, mk(1), EncodeOptions{BlockRecords: 1}); err != nil {
		t.Fatal(err)
	}
	data := one.Bytes()
	off := len(colwire.Magic)
	_, off, _ = uvarintAt(data, off)
	_, off, _ = uvarintAt(data, off)
	off += colwire.FrameHdrLen + int(binary.LittleEndian.Uint32(data[off+1:]))
	if err := os.WriteFile(filepath.Join(dir, recorder.RankFileName(1)), data[:off+colwire.FrameHdrLen+1], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, recorder.RankFileName(2))); err != nil {
		t.Fatal(err)
	}

	got, sal, err = loadLenient(storage.OS(), dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !sal.Degraded() || sal.Full != 1 || sal.Truncated != 1 || sal.Unreadable != 1 {
		t.Fatalf("degraded load salvage: %v", sal)
	}
	if sal.Salvaged != 1 || sal.Records != 4 || len(sal.Errs) != 2 {
		t.Fatalf("degraded load counts: %v", sal)
	}
	// The torn stream declared 3 records and lost its tail: the salvage
	// report counts exactly what was dropped, not just that damage happened.
	if sal.Dropped != 2 {
		t.Fatalf("dropped = %d, want 2 (declared minus salvaged)", sal.Dropped)
	}
	if len(got.PerRank[0]) != 3 || len(got.PerRank[2]) != 0 {
		t.Fatalf("per-rank records: %d/%d/%d",
			len(got.PerRank[0]), len(got.PerRank[1]), len(got.PerRank[2]))
	}
	requireRecordsEqual(t, tr.Records(1)[:1], got.Records(1))
	found := false
	for _, e := range sal.Errs {
		if errors.Is(e, recorder.ErrTruncated) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no ErrTruncated among salvage errors: %v", sal.Errs)
	}
	if s := sal.String(); !strings.Contains(s, "1 truncated") || !strings.Contains(s, "1 unreadable") ||
		!strings.Contains(s, "dropped") {
		t.Fatalf("salvage string: %q", s)
	}

	// A stream holding the wrong rank is unreadable, its records discarded
	// and, never lost to a cut, not counted as dropped.
	wdir := t.TempDir()
	if err := SaveDirOn(storage.OS(), wdir, tr); err != nil {
		t.Fatal(err)
	}
	writeColumnarRank(t, wdir, 2, 1, mk(1))
	got, sal, err = loadLenient(storage.OS(), wdir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sal.Full != 2 || sal.Unreadable != 1 || sal.Records != 6 || sal.Dropped != 0 || len(got.PerRank[2]) != 0 {
		t.Fatalf("wrong-rank stream salvage: %v", sal)
	}

	// A v1 directory salvages nothing: every stream is unreadable by its
	// magic, and no record counts as dropped.
	vdir := t.TempDir()
	if err := v1test.SaveDir(vdir, tr); err != nil {
		t.Fatal(err)
	}
	_, sal, err = loadLenient(storage.OS(), vdir, 2)
	if err == nil || !strings.Contains(err.Error(), "nothing salvageable") || sal == nil ||
		sal.Unreadable != 3 || sal.Records != 0 || sal.Dropped != 0 {
		t.Fatalf("v1 dir: err=%v sal=%v", err, sal)
	}
	for _, e := range sal.Errs {
		if !errors.Is(e, ErrBadMagic) {
			t.Fatalf("v1 dir: salvage error %v is not ErrBadMagic", e)
		}
	}

	// Nothing salvageable at all → error, with counts still reported.
	empty := t.TempDir()
	writeMeta(t, empty, `{"Ranks":2}`)
	_, sal, err = loadLenient(storage.OS(), empty, 2)
	if err == nil || sal == nil || sal.Unreadable != 2 {
		t.Fatalf("empty dir: err=%v sal=%v", err, sal)
	}
}

// TestSaveLoadDir round-trips a trace through both formats and pins the
// bytes on disk: trace.meta is the indented JSON of Meta, and every rank
// file is exactly its format's stream encoding — for v1 the bytes
// v1test.EncodeRankStream writes, read back by the v1 decoder.
func TestSaveLoadDir(t *testing.T) {
	tr := traceOf(recorder.Meta{App: "FLASH", Library: "HDF5", Variant: "fbs", Ranks: 2, PPN: 2, Steps: 10, Seed: 42},
		[][]recorder.Record{
			{mkRec(0, recorder.LayerMPI, recorder.FuncMPIBarrier, 5, 10, ""), mkRec(0, recorder.LayerPOSIX, recorder.FuncOpen, 12, 20, "/f", recorder.ORdonly, 0, 3)},
			{mkRec(1, recorder.LayerMPI, recorder.FuncMPIBarrier, 6, 10, ""), mkRec(1, recorder.LayerPOSIX, recorder.FuncRead, 15, 25, "/f", 3, 64, 64)},
		})
	for _, f := range savers {
		dir := filepath.Join(t.TempDir(), "trace")
		if err := f.save(dir, tr); err != nil {
			t.Fatal(err)
		}
		meta, err := os.ReadFile(filepath.Join(dir, "trace.meta"))
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := json.MarshalIndent(tr.Meta, "", "  "); !bytes.Equal(meta, want) {
			t.Fatalf("%s: trace.meta = %s, want %s", f.name, meta, want)
		}
		for rank := range tr.PerRank {
			rs := tr.Records(rank)
			var want bytes.Buffer
			if f.name == "v1" {
				err = v1test.EncodeRankStream(&want, rank, rs)
			} else {
				err = EncodeStream(&want, rank, rs, EncodeOptions{})
			}
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(dir, recorder.RankFileName(rank)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("%s: rank %d file differs from the stream encoder's bytes", f.name, rank)
			}
		}
		load := func() (*recorder.Trace, error) { return LoadDirOn(storage.OS(), dir, 1) }
		if f.name == "v1" {
			load = func() (*recorder.Trace, error) { return v1test.LoadDir(dir) }
		}
		got, err := load()
		if err != nil {
			t.Fatal(err)
		}
		if got.Meta != tr.Meta {
			t.Fatalf("%s: meta mismatch: %+v vs %+v", f.name, got.Meta, tr.Meta)
		}
		for r := range tr.PerRank {
			requireRecordsEqual(t, tr.Records(r), got.Records(r))
		}
	}
}

// SaveDirOn writes every rank with one stream writer; each rank file is
// still exactly the bytes a fresh writer makes, whether the rank before it
// had more blocks, fewer records or a longer dictionary.
func TestSaveDirReusedWriterBytes(t *testing.T) {
	sizes := []int{9000, 3, 4097, 1, 200}
	streams := make([][]recorder.Record, len(sizes))
	for r, n := range sizes {
		streams[r] = genStream(r, n, int64(40+r))
	}
	tr := traceOf(recorder.Meta{App: "colfmt-test", Ranks: len(sizes), PPN: 1, Steps: 1, Seed: 40}, streams)
	dir := filepath.Join(t.TempDir(), "trace")
	if err := SaveDirOn(storage.OS(), dir, tr); err != nil {
		t.Fatal(err)
	}
	for rank := range sizes {
		var want bytes.Buffer
		if err := tr.WriteStream(&want, rank); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, recorder.RankFileName(rank)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("rank %d file differs from a fresh writer's stream", rank)
		}
	}
}
