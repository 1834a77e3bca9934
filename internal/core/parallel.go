package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

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

// EffectiveWorkers normalizes a requested worker count: values <= 0 select
// runtime.GOMAXPROCS(0), everything else is used as given.
func EffectiveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// ParallelForCtx runs fn(i) for every i in [0, n) on a bounded pool of
// workers goroutines (see EffectiveWorkers; capped at n). Indices are
// handed out by an atomic counter, so the pool load-balances uneven work
// items; fn must be safe to call concurrently for distinct indices. The
// pool stops handing out indices once ctx is done and returns ctx.Err():
// cancellation is checked before every index, so one in-flight fn per
// worker may still complete. A nil error means every index ran.
func ParallelForCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	workers = EffectiveWorkers(workers)
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
	// Utilization accounting (sum of per-worker active time over pool-size x
	// wall) and per-worker spans are live only while telemetry is on; the
	// task loop itself carries no instrumentation, so the disabled path adds
	// nothing per task.
	instrumented := obs.Default().Enabled()
	tracer := obs.Default().Tracer()
	start := time.Now()
	var busyNS atomic.Int64
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			span := tracer.Start("pool-worker", "core.pool").OnLane(w + 1)
			var t0 time.Time
			if instrumented {
				t0 = time.Now()
			}
			for ctx.Err() == nil {
				i := int(next.Add(1))
				if i >= n {
					break
				}
				fn(i)
			}
			if instrumented {
				busyNS.Add(time.Since(t0).Nanoseconds())
			}
			span.End()
		}(w)
	}
	wg.Wait()
	if instrumented {
		if wall := time.Since(start).Nanoseconds(); wall > 0 {
			poolUtilization.Set(busyNS.Load() * 100 / (int64(workers) * wall))
		}
	}
	return ctx.Err()
}

// extract reconstructs per-file access intervals from a trace. It walks
// each rank's record stream in order, tracking the current offset of every
// descriptor (updated by open flags, seeks and transfer sizes, per §5.1),
// and annotates every data operation with its To/Tc times and originating
// layer. Results are returned sorted by path.
//
// A pool of one (or a one-rank trace) folds every rank into one
// extraction; larger pools process rank streams concurrently into per-rank
// partial extractions, merged in rank order (which reproduces the serial
// append order of every per-path table), and then shard the §5.2
// annotation pass across files.
func extract(ctx context.Context, tr *recorder.Trace, workers int) ([]*FileAccesses, error) {
	defer startPass("extract")()
	n := len(tr.PerRank)
	if EffectiveWorkers(workers) <= 1 || n <= 1 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		x := newExtraction()
		for _, rs := range tr.PerRank {
			extractRank(rs, x)
		}
		out := x.layout()
		for _, fa := range out {
			annotate(fa)
		}
		return out, nil
	}
	partial := make([]*extraction, n)
	if err := ParallelForCtx(ctx, n, workers, func(r int) {
		x := newExtraction()
		extractRank(tr.PerRank[r], x)
		partial[r] = x
	}); err != nil {
		return nil, err
	}

	out := mergePartials(partial).layout() // rank order = serial append order
	if err := ParallelForCtx(ctx, len(out), workers, func(i int) { annotate(out[i]) }); err != nil {
		return nil, err
	}
	return out, nil
}

// mergePartials folds per-rank partial extractions in rank order, which
// reproduces the serial append order of every per-path table: a rank's
// times are appended after the earlier partials' times for the same rank,
// and its staged chunks, re-tagged with the merged file indices, follow
// the earlier partials' chunks.
func mergePartials(partial []*extraction) *extraction {
	merged := newExtraction()
	for _, part := range partial {
		remap := make([]int32, len(part.files))
		for i, fa := range part.files {
			g, ok := merged.index[fa.Path]
			if !ok {
				g = int32(len(merged.files))
				merged.index[fa.Path] = g
				merged.files = append(merged.files, fa)
				merged.counts = append(merged.counts, part.counts[i])
				remap[i] = g
				continue
			}
			dst := merged.files[g]
			for _, rt := range fa.Ranks {
				d := dst.timesFor(rt.Rank)
				d.Opens = append(d.Opens, rt.Opens...)
				d.Closes = append(d.Closes, rt.Closes...)
				d.Commits = append(d.Commits, rt.Commits...)
			}
			merged.counts[g] += part.counts[i]
			remap[i] = g
		}
		for _, c := range part.chunks {
			for k := range c {
				c[k].file = remap[c[k].file]
			}
		}
		merged.chunks = append(merged.chunks, part.chunks...)
	}
	return merged
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
		ms[j] = ModelConflicts{Model: m, ByFile: make(map[string][]Conflict)}
	}
	for i, fa := range fas { // path order
		for j, cs := range per[i] {
			if len(cs) > 0 {
				ms[j].ByFile[fa.Path] = cs
				ms[j].Signature.merge(signatureOf(cs))
			}
		}
	}
	return ms, nil
}

// AnalyzeParallelCtx computes the §6.3 verdict for a trace: one (cached)
// extraction, then one fused sweep evaluating both model predicates per
// candidate pair. A cancelled ctx stops the sweep within one per-file task
// boundary and returns ctx.Err().
func AnalyzeParallelCtx(ctx context.Context, tr *recorder.Trace, workers int) (Verdict, error) {
	defer startPass("analyze")()
	fas, err := ExtractSharedCtx(ctx, tr, workers)
	if err != nil {
		return Verdict{}, err
	}
	ms, err := ConflictsAllForFilesCtx(ctx, fas, []pfs.Semantics{pfs.Session, pfs.Commit}, workers)
	if err != nil {
		return Verdict{}, err
	}
	return VerdictFrom(ms[0].Signature, ms[1].Signature), nil
}

// MetadataCensusParallelCtx reproduces the §6.4 analysis: it counts every
// POSIX metadata/utility operation in the trace and attributes each call to
// the I/O layer that issued it (the outermost enclosing library record, or
// the application when none). Per-rank partial censuses are merged by
// addition (commutative, so any merge order is exact).
func MetadataCensusParallelCtx(ctx context.Context, tr *recorder.Trace, workers int) (*Census, error) {
	defer startPass("census")()
	partial := make([]*Census, len(tr.PerRank))
	if err := ParallelForCtx(ctx, len(tr.PerRank), workers, func(r int) {
		c := &Census{Counts: make(map[string]map[recorder.Func]int)}
		censusRank(tr.PerRank[r], c)
		partial[r] = c
	}); err != nil {
		return nil, err
	}
	out := &Census{Counts: make(map[string]map[recorder.Func]int)}
	for _, c := range partial {
		for origin, m := range c.Counts {
			dst, ok := out.Counts[origin]
			if !ok {
				dst = make(map[recorder.Func]int)
				out.Counts[origin] = dst
			}
			for f, v := range m {
				dst[f] += v
			}
		}
	}
	return out, nil
}

// DetectMetadataConflictsParallelCtx finds cross-process metadata
// dependencies in a trace. For every dependent use it reports the most
// recent prior mutation of the path by a different process. A stat/access
// immediately followed by the same process's own creating open of the same
// path is an existence probe, not a dependency, and is skipped (the probe
// tolerates both outcomes).
//
// Per-rank event collection runs on the pool and is folded in rank order,
// then the per-path scans are sharded across paths. The final total-order
// sort makes the merge order immaterial.
func DetectMetadataConflictsParallelCtx(ctx context.Context, tr *recorder.Trace, workers int) ([]MetaConflict, error) {
	defer startPass("meta-conflicts")()
	locals := make([][]metaEvent, len(tr.PerRank))
	if err := ParallelForCtx(ctx, len(tr.PerRank), workers, func(r int) { locals[r] = metaEventsRank(tr.PerRank[r]) }); err != nil {
		return nil, err
	}
	events := make(map[string][]metaEvent)
	for _, local := range locals { // rank order
		addMetaEvents(events, local)
	}
	paths := make([]string, 0, len(events))
	for p := range events {
		paths = append(paths, p)
	}
	per := make([][]MetaConflict, len(paths))
	if err := ParallelForCtx(ctx, len(paths), workers, func(i int) {
		per[i] = metaConflictsForPath(paths[i], events[paths[i]])
	}); err != nil {
		return nil, err
	}
	var out []MetaConflict
	for _, cs := range per {
		out = append(out, cs...)
	}
	sortMetaConflicts(out)
	return out, nil
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
// opts.Exclude, if supplied, must be safe for concurrent calls.
func ClassifyHighLevelParallelCtx(ctx context.Context, fas []*FileAccesses, opts HLOptions, workers int) ([]HighLevelPattern, error) {
	defer startPass("classify")()
	o := opts.withDefaults()
	slots := make([]*fileSummary, len(fas))
	if err := ParallelForCtx(ctx, len(fas), workers, func(i int) {
		fa := fas[i]
		if o.Exclude(fa.Path) || len(fa.Intervals) == 0 {
			return
		}
		slots[i] = summarize(fa, o.MetaSizeThreshold)
	}); err != nil {
		return nil, err
	}
	sums := make([]*fileSummary, 0, len(slots))
	for _, s := range slots {
		if s != nil {
			sums = append(sums, s)
		}
	}
	return groupSummaries(sums, o.WorldSize), nil
}
