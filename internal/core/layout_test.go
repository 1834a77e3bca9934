package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/apps"
	"repro/internal/recorder"
)

// checkRankTimes checks fa.Ranks against the map-based tables: strictly
// sorted by rank, one entry per rank with any time, TimesOf returning each
// rank's times and nil for every rank without an entry.
func checkRankTimes(t *testing.T, how string, fa *FileAccesses, want rankTables) {
	t.Helper()
	for i := 1; i < len(fa.Ranks); i++ {
		if fa.Ranks[i-1].Rank >= fa.Ranks[i].Rank {
			t.Fatalf("%s: %s: Ranks not strictly sorted at %d: %d then %d", how, fa.Path, i, fa.Ranks[i-1].Rank, fa.Ranks[i].Rank)
		}
	}
	wantRanks := want.ranks()
	if len(fa.Ranks) != len(wantRanks) {
		t.Fatalf("%s: %s: %d rank entries, oracle has %d", how, fa.Path, len(fa.Ranks), len(wantRanks))
	}
	for _, w := range wantRanks {
		got := fa.TimesOf(w.Rank)
		if got == nil {
			t.Fatalf("%s: %s: TimesOf(%d) = nil, oracle has %+v", how, fa.Path, w.Rank, w)
		}
		if got.Rank != w.Rank || !slices.Equal(got.Opens, w.Opens) || !slices.Equal(got.Closes, w.Closes) || !slices.Equal(got.Commits, w.Commits) {
			t.Fatalf("%s: %s: TimesOf(%d) = %+v, oracle %+v", how, fa.Path, w.Rank, *got, w)
		}
	}
	lo, hi := int32(-1), int32(0)
	if n := len(wantRanks); n > 0 {
		lo, hi = wantRanks[0].Rank-1, wantRanks[n-1].Rank+1
	}
	for r := lo; r <= hi; r++ {
		if !slices.ContainsFunc(wantRanks, func(rt RankTimes) bool { return rt.Rank == r }) && fa.TimesOf(r) != nil {
			t.Fatalf("%s: %s: TimesOf(%d) = %+v for a rank the oracle lacks", how, fa.Path, r, *fa.TimesOf(r))
		}
	}
}

// checkAgainstOracle compares an extraction with extractOracle's: the same
// files in path order, each file's intervals byte for byte in the oracle's
// append order with len == cap, their annotations, and its per-rank times.
func checkAgainstOracle(t *testing.T, how string, fas []*FileAccesses, want map[string]*oracleFile) {
	t.Helper()
	if len(fas) != len(want) {
		t.Fatalf("%s: %d files, oracle has %d", how, len(fas), len(want))
	}
	for i, fa := range fas {
		if i > 0 && fas[i-1].Path >= fa.Path {
			t.Fatalf("%s: files not in path order: %q then %q", how, fas[i-1].Path, fa.Path)
		}
		w, ok := want[fa.Path]
		if !ok {
			t.Fatalf("%s: file %q not in the oracle", how, fa.Path)
		}
		got := make([]annotated, len(fa.Intervals))
		for i := range fa.Intervals {
			got[i] = annotationsOf(fa, &fa.Intervals[i])
		}
		if !slices.Equal(got, w.intervals) {
			t.Fatalf("%s: %s: intervals differ from the oracle:\n got  %+v\n want %+v", how, fa.Path, got, w.intervals)
		}
		if len(fa.Intervals) != cap(fa.Intervals) {
			t.Fatalf("%s: %s: len %d != cap %d: an append would write into the next file's intervals", how, fa.Path, len(fa.Intervals), cap(fa.Intervals))
		}
		checkRankTimes(t, how, fa, w.times)
	}
}

// TestExtractMatchesMapOracleRegistry: for every registry app, extraction
// at one and two workers reproduces the map-based oracle.
func TestExtractMatchesMapOracleRegistry(t *testing.T) {
	for _, name := range apps.Names() {
		cfg, _ := apps.Lookup(name)
		res, err := apps.Execute(cfg, apps.Options{Ranks: 8, PPN: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := extractOracle(res.Trace)
		for _, workers := range []int{1, 2} {
			fas, err := ExtractSharedCtx(context.Background(), res.Trace, workers)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstOracle(t, fmt.Sprintf("%s workers=%d", name, workers), fas, want)
		}
	}
}

// TestExtractForgedRanks: record streams whose Rank fields differ from
// their stream index (a trace cannot hold them, a RecordStream can), with one file touched by ranks 5, 2, 5, 2 in that order.
// Stream 0 holds rank 5's first session and stream 1 the rest, so rank 2's
// entry is inserted before rank 5's in the serial fold and in the merge of
// per-stream partials.
func TestExtractForgedRanks(t *testing.T) {
	var clock uint64
	rec := func(rank int32, f recorder.Func, path string, args ...int64) recorder.Record {
		clock += 10
		return recorder.Record{Rank: rank, Layer: recorder.LayerPOSIX, Func: f, TStart: clock, TEnd: clock + 5, Path: path, Args: args}
	}
	// session opens /shared as fd on rank, writes n bytes at off, fsyncs
	// and closes, and also touches a private file.
	session := func(rank int32, fd, off, n int64) []recorder.Record {
		return []recorder.Record{
			rec(rank, recorder.FuncOpen, "/shared", recorder.OCreat|recorder.OWronly, 0o644, fd),
			rec(rank, recorder.FuncPwrite, "", fd, n, off, n),
			rec(rank, recorder.FuncOpen, fmt.Sprintf("/own.%d", rank), recorder.OCreat|recorder.OWronly, 0o644, fd+1),
			rec(rank, recorder.FuncWrite, "", fd+1, n, n),
			rec(rank, recorder.FuncFsync, "", fd),
			rec(rank, recorder.FuncClose, "", fd+1),
			rec(rank, recorder.FuncClose, "", fd),
		}
	}
	perRank := [][]recorder.Record{
		session(5, 3, 0, 100),
		slices.Concat(session(2, 3, 50, 100), session(5, 5, 100, 30), session(2, 7, 0, 10)),
	}
	want := extractOracleStreams(perRank)
	if got := want["/shared"].times.ranks(); len(got) != 2 || len(got[0].Opens) != 2 {
		t.Fatalf("forged trace does not touch /shared twice from ranks 2 and 5: %+v", got)
	}
	for _, workers := range []int{1, 2} {
		sc, err := ScanRanksCtx(context.Background(), len(perRank), workers, func(rank int) (RecordStream, func(), error) {
			return newSliceStream(perRank[rank]), func() {}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, fmt.Sprintf("workers=%d", workers), sc.Files, want)
	}
}

// TestPropertyRankTimesMatchTables: on random single-file schedules, whose
// ranks act in random order, Ranks and TimesOf agree with the map-based
// tables.
func TestPropertyRankTimesMatchTables(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		fa, want := randomFATables(rng)
		checkRankTimes(t, fmt.Sprintf("trial %d", trial), fa, want)
	}
}

// TestExtractAllocsPerFile gates the extraction's allocations on an N-N
// trace with many small files: ENZO-HDF5 at 16 ranks and 200 steps, 1,601
// files and 16,001 intervals, extracted cold. The per-file interval slices
// and per-rank time maps this layout replaced measured 16.2 (one worker)
// and 16.3 (two workers) allocations per file and 411-418 B per interval;
// one arena and flat per-rank tables bring it to about 6.5.
func TestExtractAllocsPerFile(t *testing.T) {
	cfg, _ := apps.Lookup("ENZO-HDF5")
	res, err := apps.Execute(cfg, apps.Options{Ranks: 16, PPN: 2, Seed: 1, Params: apps.Params{Steps: 200}})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	for _, workers := range []int{1, 2} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		fas, err := ExtractSharedCtx(context.Background(), tr, workers)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		ivs := 0
		for _, fa := range fas {
			ivs += len(fa.Intervals)
		}
		if len(fas) != 1601 || ivs != 16001 {
			t.Fatalf("workers=%d: %d files, %d intervals; want 1601 and 16001", workers, len(fas), ivs)
		}
		perFile := float64(after.Mallocs-before.Mallocs) / float64(len(fas))
		t.Logf("workers=%d: %.1f allocations per file, %.0f B per interval",
			workers, perFile, float64(after.TotalAlloc-before.TotalAlloc)/float64(ivs))
		if perFile >= 10 {
			t.Errorf("workers=%d: %.1f allocations per file, want < 10", workers, perFile)
		}
	}
}

// TestIntervalHasNoInteriorPadding: every Interval field starts where the
// previous one ends, so the struct is only as large as its fields plus the
// trailing alignment, and the sizes the analysis working set is built of
// stay pinned: a 48-byte Interval (the paper's tuple without stored
// annotations) and a 128-byte Conflict.
func TestIntervalHasNoInteriorPadding(t *testing.T) {
	typ := reflect.TypeOf(Interval{})
	var end uintptr
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Offset != end {
			t.Errorf("field %s at offset %d, previous field ends at %d", f.Name, f.Offset, end)
		}
		end = f.Offset + f.Type.Size()
	}
	if got := unsafe.Sizeof(Interval{}); got != 48 {
		t.Errorf("Interval is %d bytes, want 48", got)
	}
	if got := unsafe.Sizeof(Conflict{}); got != 128 {
		t.Errorf("Conflict is %d bytes, want 128", got)
	}
}

// TestMetaEventHasNoPointers: a metadata event is 32 bytes and holds no
// pointer, directly or in a nested field, so a trace's events are one
// array the garbage collector never scans.
func TestMetaEventHasNoPointers(t *testing.T) {
	var holdsPointer func(reflect.Type) bool
	holdsPointer = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if holdsPointer(typ.Field(i).Type) {
					return true
				}
			}
			return false
		case reflect.Array:
			return typ.Len() > 0 && holdsPointer(typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
			reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
			return true
		}
		return false
	}
	typ := reflect.TypeOf(metaEvent{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); holdsPointer(f.Type) {
			t.Errorf("metaEvent.%s (%v) holds a pointer", f.Name, f.Type)
		}
	}
	if got := typ.Size(); got != 32 {
		t.Errorf("metaEvent is %d bytes, want 32", got)
	}
}

// sliceStream is a RecordStream over a slice of records, for streams a
// trace cannot hold.
type sliceStream struct {
	rs []recorder.Record
	i  int // index of the current record plus one
}

// newSliceStream returns a stream over rs.
func newSliceStream(rs []recorder.Record) *sliceStream { return &sliceStream{rs: rs} }

// Next advances to the next record.
func (s *sliceStream) Next() bool {
	if s.i >= len(s.rs) {
		return false
	}
	s.i++
	return true
}

// Record returns the current record.
func (s *sliceStream) Record() *recorder.Record { return &s.rs[s.i-1] }

// Err is always nil: a slice cannot be damaged.
func (s *sliceStream) Err() error { return nil }
