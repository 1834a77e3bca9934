package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/pfs"
	"repro/internal/recorder"
)

func TestParallelForCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := ParallelForCtx(ctx, 100, workers, func(i int) { ran.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want Canceled", workers, err)
		}
		if ran.Load() != 0 {
			t.Fatalf("workers=%d: %d tasks ran under a cancelled context", workers, ran.Load())
		}
	}
}

func TestParallelForCtxStopsWithinTaskBoundary(t *testing.T) {
	const n, workers, cancelAt = 10_000, 4, 10
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// cancelled is set once cancel() has returned; late counts the tasks
	// that start after that.
	var ran, late atomic.Int32
	var cancelled atomic.Bool
	err := ParallelForCtx(ctx, n, workers, func(i int) {
		if cancelled.Load() {
			late.Add(1)
		}
		if ran.Add(1) == cancelAt {
			cancel()
			cancelled.Store(true)
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	// A worker checks the context before each task, so each may have
	// passed its check once before the cancel and start that one task
	// after it; none may start another.
	if got := late.Load(); got > workers {
		t.Fatalf("%d tasks started after cancel returned, want <= %d (one per worker)", got, workers)
	}
}

func TestParallelForCtxNilErrorRunsAll(t *testing.T) {
	var ran atomic.Int32
	if err := ParallelForCtx(context.Background(), 50, 4, func(i int) { ran.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 50 {
		t.Fatalf("ran %d/50 tasks", ran.Load())
	}
}

// synthTrace builds a deterministic multi-rank trace with shared and
// private files, small enough for unit tests but real enough that every
// analysis pass has work to cancel.
func synthTrace(ranks, filesPerRank int) *recorder.Trace {
	perRank := make([][]recorder.Record, ranks)
	for r := 0; r < ranks; r++ {
		var rs []recorder.Record
		ts := uint64(1)
		emit := func(fn recorder.Func, path string, args ...int64) {
			rs = append(rs, recorder.Record{Rank: int32(r), Layer: recorder.LayerPOSIX,
				Func: fn, TStart: ts, TEnd: ts + 1, Path: path, Args: args})
			ts += 2
		}
		for f := 0; f < filesPerRank; f++ {
			path := fmt.Sprintf("/pp/r%d.f%d", r, f)
			if f%2 == 0 {
				path = fmt.Sprintf("/shared/f%d", f)
			}
			fd := int64(100 + f)
			emit(recorder.FuncOpen, path, int64(recorder.OCreat|recorder.ORdwr), 0o644, fd)
			emit(recorder.FuncPwrite, "", fd, 64, int64(64*r), 64)
			emit(recorder.FuncClose, "", fd)
		}
		perRank[r] = rs
	}
	return traceOf(recorder.Meta{App: "ctx", Ranks: ranks}, perRank)
}

func TestAnalyzeParallelCtxCancelled(t *testing.T) {
	tr := synthTrace(8, 40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ScanTraceCtx(ctx, tr, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("ScanTraceCtx err = %v, want Canceled", err)
	}
	if _, err := ExtractSharedCtx(ctx, tr, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExtractSharedCtx err = %v, want Canceled", err)
	}
	if _, err := ConflictsAllForFilesCtx(ctx, nil, []pfs.Semantics{pfs.Session}, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("ConflictsAllForFilesCtx err = %v, want Canceled", err)
	}
	if _, err := MetadataCensusParallelCtx(ctx, tr, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("MetadataCensusParallelCtx err = %v, want Canceled", err)
	}
	if _, err := DetectMetadataConflictsParallelCtx(ctx, tr, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("DetectMetadataConflictsParallelCtx err = %v, want Canceled", err)
	}
	// A cancelled scan leaves nothing behind: an uncancelled call
	// afterwards succeeds and agrees with the serial case.
	want := analyzeVerdict(tr)
	got, err := verdictCtx(context.Background(), tr, 4)
	if err != nil || got != want {
		t.Fatalf("verdict = %+v, %v; want %+v", got, err, want)
	}
}
