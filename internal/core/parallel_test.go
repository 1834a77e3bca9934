package core

import (
	"context"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/pfs"
	"repro/internal/recorder"
)

func TestParallelForCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{-3, 0, 1, 2, 7, 64} {
		for _, n := range []int{0, 1, 2, 13, 100} {
			hits := make([]int32, n)
			if err := ParallelForCtx(context.Background(), n, workers, func(i int) { atomic.AddInt32(&hits[i], 1) }); err != nil {
				t.Fatal(err)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestEffectiveWorkers(t *testing.T) {
	if got := effectiveWorkers(5); got != 5 {
		t.Fatalf("EffectiveWorkers(5) = %d", got)
	}
	if got := effectiveWorkers(0); got < 1 {
		t.Fatalf("EffectiveWorkers(0) = %d", got)
	}
	if got := effectiveWorkers(-2); got < 1 {
		t.Fatalf("EffectiveWorkers(-2) = %d", got)
	}
}

// emptyTraces enumerates the degenerate inputs every parallel entry point
// must survive: no ranks at all, and ranks with empty record streams.
func emptyTraces() []*recorder.Trace {
	return []*recorder.Trace{
		{Meta: recorder.Meta{App: "none", Ranks: 0}},
		traceOf(recorder.Meta{App: "empty", Ranks: 3}, make([][]recorder.Record, 3)),
	}
}

func TestParallelAnalysisEmptyTrace(t *testing.T) {
	ctx := context.Background()
	for _, tr := range emptyTraces() {
		for _, w := range []int{0, 1, 4} {
			fas, err := ExtractSharedCtx(ctx, tr, w)
			if err != nil || len(fas) != 0 {
				t.Fatalf("%s/w=%d: extracted %d files from empty trace (err %v)", tr.Meta.App, w, len(fas), err)
			}
			ms, err := ConflictsAllForFilesCtx(ctx, fas, []pfs.Semantics{pfs.Session}, w)
			if err != nil || len(ms[0].ByFile) != 0 || ms[0].Signature.Any() {
				t.Fatalf("%s/w=%d: conflicts from empty trace (err %v)", tr.Meta.App, w, err)
			}
			if v, err := verdictCtx(ctx, tr, w); err != nil || v.Weakest != pfs.Session {
				t.Fatalf("%s/w=%d: empty trace verdict %v (err %v)", tr.Meta.App, w, v.Weakest, err)
			}
			if c, err := MetadataCensusParallelCtx(ctx, tr, w); err != nil || c.Total() != 0 {
				t.Fatalf("%s/w=%d: census of empty trace = %v (err %v)", tr.Meta.App, w, c, err)
			}
			if cs, err := DetectMetadataConflictsParallelCtx(ctx, tr, w); err != nil || len(cs) != 0 {
				t.Fatalf("%s/w=%d: metadata conflicts from empty trace (err %v)", tr.Meta.App, w, err)
			}
		}
	}
}

// TestParallelWorkersExceedFiles pins the pool-larger-than-work shape: a
// single-file, single-rank trace analyzed with a 64-worker pool.
func TestParallelWorkersExceedFiles(t *testing.T) {
	tr := traceOf(recorder.Meta{App: "tiny", Ranks: 1}, [][]recorder.Record{{
		{Rank: 0, Layer: recorder.LayerPOSIX, Func: recorder.FuncOpen, TStart: 1, TEnd: 2, Path: "/one",
			Args: []int64{int64(recorder.OCreat | recorder.OWronly), 0o644, 3}},
		{Rank: 0, Layer: recorder.LayerPOSIX, Func: recorder.FuncWrite, TStart: 3, TEnd: 4, Args: []int64{3, 10, 10}},
		{Rank: 0, Layer: recorder.LayerPOSIX, Func: recorder.FuncClose, TStart: 5, TEnd: 6, Args: []int64{3}},
	}})
	want := extractAll(tr)
	for _, w := range []int{2, 64} {
		if got, _ := ExtractSharedCtx(context.Background(), tr, w); !reflect.DeepEqual(want, got) {
			t.Fatalf("w=%d: extraction diverges on tiny trace", w)
		}
	}
	wantVerdict := analyzeVerdict(tr)
	if v, _ := verdictCtx(context.Background(), tr, 64); v != wantVerdict {
		t.Fatal("verdict diverges with 64 workers on a one-file trace")
	}
}

// TestParallelManySmallFilesStress floods the engine with a many-file,
// many-rank trace and re-runs the full parallel sweep repeatedly. Run with
// -race (CI does) this doubles as the data-race gate for the shared
// read-only FileAccesses slices.
func TestParallelManySmallFilesStress(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const ranks = 16
	perRank := make([][]recorder.Record, ranks)
	for r := 0; r < ranks; r++ {
		var rs []recorder.Record
		ts := uint64(1)
		emit := func(fn recorder.Func, path string, args ...int64) {
			rs = append(rs, recorder.Record{Rank: int32(r), Layer: recorder.LayerPOSIX,
				Func: fn, TStart: ts, TEnd: ts + 1, Path: path, Args: args})
			ts += 2
		}
		for f := 0; f < 40; f++ {
			// Half private files, half shared across all ranks.
			path := "/pp/f" + string(rune('a'+r%26)) + string(rune('a'+f%26))
			if f%2 == 0 {
				path = "/shared/f" + string(rune('a'+f%26))
			}
			fd := int64(100 + f)
			emit(recorder.FuncOpen, path, int64(recorder.OCreat|recorder.ORdwr), 0o644, fd)
			n := int64(1 + rng.Intn(64))
			emit(recorder.FuncPwrite, "", fd, n, int64(rng.Intn(128)), n)
			if rng.Intn(2) == 0 {
				emit(recorder.FuncPread, "", fd, n, int64(rng.Intn(128)), n)
			}
			emit(recorder.FuncClose, "", fd)
		}
		perRank[r] = rs
	}
	tr := traceOf(recorder.Meta{App: "stress", Ranks: ranks}, perRank)

	ctx := context.Background()
	fas := extractAll(tr)
	if len(fas) < 40 {
		t.Fatalf("stress trace only has %d files", len(fas))
	}
	wantVerdict := analyzeVerdict(tr)
	wantByFile, wantSig := analyzeConflictsOracle(tr, pfs.Session)
	wantCensus := census(tr)
	for iter := 0; iter < 5; iter++ {
		for _, w := range []int{4, 8} {
			got, err := ExtractSharedCtx(ctx, tr, w)
			if err != nil || !reflect.DeepEqual(fas, got) {
				t.Fatalf("iter %d w=%d: extraction diverges (err %v)", iter, w, err)
			}
			ms, err := ConflictsAllForFilesCtx(ctx, got, []pfs.Semantics{pfs.Session}, w)
			if err != nil || !reflect.DeepEqual(wantByFile, ms[0].ByFile) || ms[0].Signature != wantSig {
				t.Fatalf("iter %d w=%d: session conflicts diverge (err %v)", iter, w, err)
			}
			if got, err := verdictCtx(ctx, tr, w); err != nil || got != wantVerdict {
				t.Fatalf("iter %d w=%d: verdict diverges (err %v)", iter, w, err)
			}
			if got, err := MetadataCensusParallelCtx(ctx, tr, w); err != nil || !reflect.DeepEqual(wantCensus, got) {
				t.Fatalf("iter %d w=%d: census diverges (err %v)", iter, w, err)
			}
		}
	}
}
