package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/recorder"
)

// Parallel analysis engine. Every pass of the paper's offline analysis is
// embarrassingly parallel across rank streams (extraction, census, metadata
// events) or across files (conflict detection, pattern classification), so
// each pass has exactly one entry point, a (ctx, …, workers) function that
// shards its input over a bounded worker pool and then performs a
// deterministic merge: shard results land in index-addressed slots and are
// folded back in input (rank or path) order, so the output is identical at
// every worker count. workers == 1 is the serial case — a pool of one that
// runs every task in the calling goroutine — not a separate implementation.
//
// Cancellation is observed at task boundaries (no index is handed out after
// the context is done; in-flight tasks finish), and the entry point returns
// ctx.Err() instead of a partial result.

// effectiveWorkers normalizes a requested worker count: values <= 0 select
// runtime.GOMAXPROCS(0), everything else is used as given.
func effectiveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// ParallelForCtx runs fn(i) for every i in [0, n) on a bounded pool of
// workers goroutines (see effectiveWorkers; capped at n). Indices are
// handed out by an atomic counter, so the pool load-balances uneven work
// items; fn must be safe to call concurrently for distinct indices. The
// pool stops handing out indices once ctx is done and returns ctx.Err():
// cancellation is checked before every index, so one in-flight fn per
// worker may still complete. A nil error means every index ran.
func ParallelForCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	workers = effectiveWorkers(workers)
	if workers > n {
		workers = n
	}
	poolRuns.Inc()
	poolTasks.Add(int64(n))
	poolWorkers.Set(int64(workers))
	poolQueue.SetMax(int64(n))
	if workers <= 1 {
		poolSerial.Inc()
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}
	// Each worker's span, on its own lane, is its busy time; the task loop
	// itself carries no instrumentation.
	tracer := obs.Default().Tracer()
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			span := tracer.Start("pool-worker", "core.pool").OnLane(w + 1)
			for ctx.Err() == nil {
				i := int(next.Add(1))
				if i >= n {
					break
				}
				fn(i)
			}
			span.End()
		}(w)
	}
	wg.Wait()
	return ctx.Err()
}

// ConflictsAllForFilesCtx runs the fused multi-model conflict sweep (one
// offset-sorted sweep per file evaluating every model's predicate) over
// already-extracted accesses on a worker pool, merging in path order.
// Results index-match models. fas must not be mutated concurrently.
func ConflictsAllForFilesCtx(ctx context.Context, fas []*FileAccesses, models []pfs.Semantics, workers int) ([]ModelConflicts, error) {
	defer startPass("fused-conflicts")()
	per := make([][][]Conflict, len(fas))
	if err := ParallelForCtx(ctx, len(fas), workers, func(i int) {
		per[i] = detectConflictsMulti(fas[i], models)
	}); err != nil {
		return nil, err
	}
	ms := make([]ModelConflicts, len(models))
	for j, m := range models {
		mc := &ms[j]
		mc.Model = m
		mc.Files = make([][]Conflict, len(fas))
		n := 0
		for i := range fas {
			if cs := per[i][j]; len(cs) > 0 {
				mc.Files[i] = cs
				n++
			}
		}
		mc.ByFile = make(map[string][]Conflict, n)
		for i, fa := range fas { // path order
			if cs := mc.Files[i]; cs != nil {
				mc.ByFile[fa.Path] = cs
				mc.Signature.merge(signatureOf(cs))
			}
		}
	}
	return ms, nil
}

// MetadataCensusParallelCtx reproduces the §6.4 analysis: it counts every
// POSIX metadata/utility operation in the trace and attributes each call to
// the I/O layer that issued it (the outermost enclosing library record, or
// the application when none). The census is folded by a scan of the
// trace (see ScanTraceCtx).
func MetadataCensusParallelCtx(ctx context.Context, tr *recorder.Trace, workers int) (*Census, error) {
	sc, err := ScanTraceCtx(ctx, tr, workers)
	if err != nil {
		return nil, err
	}
	return sc.Census, nil
}

// DetectMetadataConflictsParallelCtx finds cross-process metadata
// dependencies in a trace. For every dependent use it reports the most
// recent prior mutation of the path by a different process. A stat/access
// whose process's next touch of the same path is its own creating open is
// an existence probe, not a dependency, and is skipped (the probe tolerates
// both outcomes).
//
// The per-rank metadata events come from a scan of the trace (see
// ScanTraceCtx); the per-path scans are sharded across paths, and the final
// total-order sort makes the merge order immaterial.
func DetectMetadataConflictsParallelCtx(ctx context.Context, tr *recorder.Trace, workers int) ([]MetaConflict, error) {
	sc, err := ScanTraceCtx(ctx, tr, workers)
	if err != nil {
		return nil, err
	}
	return sc.MetaConflictsCtx(ctx, workers)
}

// GlobalPatternParallelCtx computes Figure 1(a): transitions between
// successive accesses to each file in global time order, across all
// processes — the request stream the PFS actually sees. Per-file mixes are
// summed (addition is commutative, so the merge is exact).
func GlobalPatternParallelCtx(ctx context.Context, fas []*FileAccesses, workers int) (PatternMix, error) {
	return patternParallel(ctx, fas, workers, globalPatternFile)
}

// LocalPatternParallelCtx computes Figure 1(b): transitions between
// successive accesses of each process to each file, aggregated over the
// whole trace.
func LocalPatternParallelCtx(ctx context.Context, fas []*FileAccesses, workers int) (PatternMix, error) {
	return patternParallel(ctx, fas, workers, localPatternFile)
}

func patternParallel(ctx context.Context, fas []*FileAccesses, workers int, file func(*FileAccesses) PatternMix) (PatternMix, error) {
	defer startPass("patterns")()
	per := make([]PatternMix, len(fas))
	if err := ParallelForCtx(ctx, len(fas), workers, func(i int) { per[i] = file(fas[i]) }); err != nil {
		return PatternMix{}, err
	}
	var mix PatternMix
	for _, m := range per {
		mix = mix.plus(m)
	}
	return mix, nil
}

// ClassifyHighLevelParallelCtx reproduces Table 3: it groups an
// application's files into families (same directory, or same digit-stripped
// name template), determines how many processes access how many files
// concurrently, and classifies the per-process in-file layout. A family of
// files written one after another (a checkpoint series) counts as repeated
// X-1 phases; files written concurrently count as X-M / X-N.
//
// The per-file summaries (the expensive part — per-rank layout
// classification) run on the pool, then are compacted in path order and
// grouped serially, so the family order is the same at every worker count.
func ClassifyHighLevelParallelCtx(ctx context.Context, fas []*FileAccesses, opts HLOptions, workers int) ([]HighLevelPattern, error) {
	defer startPass("classify")()
	slots := make([]fileSummary, len(fas))
	if err := ParallelForCtx(ctx, len(fas), workers, func(i int) {
		fa := fas[i]
		if excludedInput(fa.Path) || len(fa.Intervals) == 0 {
			return
		}
		slots[i] = summarize(fa, metaSizeThreshold)
	}); err != nil {
		return nil, err
	}
	sums := slots[:0] // compacted in place, in path order
	for i := range slots {
		if slots[i].accessors > 0 {
			sums = append(sums, slots[i])
		}
	}
	return groupSummaries(sums, opts.WorldSize), nil
}
