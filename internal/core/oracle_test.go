package core

import (
	"context"
	"slices"
	"sort"

	"repro/internal/pfs"
	"repro/internal/recorder"
)

// Test oracles and serial-case helpers. The oracles are the literal
// transcriptions of the paper's algorithms the production engine is checked
// against: one sweep per model (the production engine evaluates every
// model in one fused sweep) and the O(n²) overlap enumeration (production
// runs Algorithm 1's offset-sorted sweep).

// detectConflictsOracle finds one file's conflicting access pairs under one
// consistency model with a sweep of its own: the per-model reference the
// fused detectConflictsMulti must reproduce byte for byte (same cap, same
// class-preserving appender, same stable sort).
func detectConflictsOracle(fa *FileAccesses, model pfs.Semantics) []Conflict {
	if model == pfs.Strong {
		return nil
	}
	app := conflictAppender{max: maxConflictsPerFile}
	sweepOverlaps(fa.Intervals, func(p overlapPair) {
		first, second := &fa.Intervals[p.A], &fa.Intervals[p.B]
		if conflictUnder(fa, model, first, second) {
			app.add(Conflict{
				Path:        fa.Path,
				Kind:        kindOf(second),
				SameProcess: first.Rank == second.Rank,
				First:       *first,
				Second:      *second,
			})
		}
	})
	sortConflicts(app.out)
	return app.out
}

// analyzeConflictsOracle extracts the trace for itself (serially, no cache)
// and runs the per-model oracle over every file, exactly as Algorithm 1 +
// §5.2 describe: conflicts per file (files without conflicts omitted) and
// the aggregate signature.
func analyzeConflictsOracle(tr *recorder.Trace, model pfs.Semantics) (map[string][]Conflict, ConflictSignature) {
	byFile := make(map[string][]Conflict)
	var sig ConflictSignature
	for _, fa := range extractAll(tr) {
		if cs := detectConflictsOracle(fa, model); len(cs) > 0 {
			byFile[fa.Path] = cs
			sig.merge(signatureOf(cs))
		}
	}
	return byFile, sig
}

// detectOverlapsBruteForce enumerates every interval pair: the reference
// sweepOverlaps is checked against. It reports the same candidate pairs
// (overlapping, time-ordered, earlier operation a write).
func detectOverlapsBruteForce(ivs []Interval, onPair func(overlapPair)) {
	for i := 0; i < len(ivs); i++ {
		for j := i + 1; j < len(ivs); j++ {
			a, b := &ivs[i], &ivs[j]
			if a.Os < b.Oe && b.Os < a.Oe {
				first, second := i, j
				if earlier(ivs, second, first) {
					first, second = second, first
				}
				if ivs[first].Write {
					onPair(overlapPair{A: first, B: second})
				}
			}
		}
	}
}

// rankTables is the map-based per-rank time layout FileAccesses.Ranks
// replaced: each rank's open, close and commit times on one file, keyed by
// the record's rank.
type rankTables struct {
	opens, closes, commits map[int32][]uint64
}

func newRankTables() rankTables {
	return rankTables{opens: map[int32][]uint64{}, closes: map[int32][]uint64{}, commits: map[int32][]uint64{}}
}

// ranks converts the tables to the Ranks layout: one entry per rank that
// has any time, sorted by rank.
func (m rankTables) ranks() []RankTimes {
	var rs []int32
	for _, tab := range []map[int32][]uint64{m.opens, m.closes, m.commits} {
		for r := range tab {
			if !slices.Contains(rs, r) {
				rs = append(rs, r)
			}
		}
	}
	slices.Sort(rs)
	var out []RankTimes
	for _, r := range rs {
		out = append(out, RankTimes{Rank: r, Opens: m.opens[r], Closes: m.closes[r], Commits: m.commits[r]})
	}
	return out
}

// annotated is an interval with the §5.2 record expansion, all with respect
// to its rank and file: To is the time of the last open at or before T;
// TcCommit the time of the first commit operation (fsync/fdatasync/fflush/
// close) after T; TcClose the time of the first close after T; noTime when
// none. Interval does not store them: the conflict predicates search the
// rank's times per candidate pair.
type annotated struct {
	Interval
	To, TcCommit, TcClose uint64
}

// annotate expands iv from its rank's open, commit and close times.
func annotate(iv Interval, opens, commits, closes []uint64) annotated {
	return annotated{iv, lastBefore(opens, iv.T), firstAfter(commits, iv.T), firstAfter(closes, iv.T)}
}

// annotationsOf expands one of fa's intervals from fa.timesOf.
func annotationsOf(fa *FileAccesses, iv *Interval) annotated {
	rt := fa.timesOf(iv.Rank)
	if rt == nil {
		return annotate(*iv, nil, nil, nil)
	}
	return annotate(*iv, rt.Opens, rt.Commits, rt.Closes)
}

// lastBefore returns the largest element <= t, or noTime.
func lastBefore(times []uint64, t uint64) uint64 {
	idx := sort.Search(len(times), func(i int) bool { return times[i] > t })
	if idx == 0 {
		return noTime
	}
	return times[idx-1]
}

// oracleFile is one file of extractOracle's result.
type oracleFile struct {
	intervals []annotated
	times     rankTables
}

// extractOracle is the extraction the interval arena and the Ranks layout
// replaced: one serial fold over every rank stream that appends each
// interval to its own file's slice and keeps the per-rank times in maps,
// then annotates every interval from the maps. extract must reproduce its
// intervals byte for byte, FileAccesses.timesOf its tables, and
// annotationsOf its annotations.
func extractOracle(tr *recorder.Trace) map[string]*oracleFile {
	perRank := make([][]recorder.Record, len(tr.PerRank))
	for rank := range perRank {
		perRank[rank] = tr.Records(rank)
	}
	return extractOracleStreams(perRank)
}

// extractOracleStreams is extractOracle over rank streams given as
// records, whose Rank fields need not match their stream index.
func extractOracleStreams(perRank [][]recorder.Record) map[string]*oracleFile {
	files := make(map[string]*oracleFile)
	get := func(path string) *oracleFile {
		f, ok := files[path]
		if !ok {
			f = &oracleFile{times: newRankTables()}
			files[path] = f
		}
		return f
	}
	// The oracle's descriptors name paths by an index into names.
	var names []string
	nameID := func(path string) int32 {
		names = append(names, path)
		return int32(len(names) - 1)
	}
	for _, rs := range perRank {
		var fds fdTable
		sizeByPath := make(map[string]int64)
		origins, phases := attributeOrigins(rs)
		for i := range rs {
			r := &rs[i]
			origin, phase := origins[i], phases[i]
			if r.Layer != recorder.LayerPOSIX {
				continue
			}
			switch {
			case r.IsOpenOp():
				fd := r.Arg(2)
				if fd < 0 {
					continue
				}
				flags := int(r.Arg(0))
				fds.set(fd, fdState{path: nameID(r.Path), appendMd: flags&recorder.OAppend != 0})
				if flags&recorder.OTrunc != 0 {
					sizeByPath[r.Path] = 0
				}
				m := get(r.Path).times
				m.opens[r.Rank] = append(m.opens[r.Rank], r.TStart)
			case r.IsCloseOp():
				if st := fds.closeFD(r.Arg(0)); st != nil {
					m := get(names[st.path]).times
					m.closes[r.Rank] = append(m.closes[r.Rank], r.TStart)
					m.commits[r.Rank] = append(m.commits[r.Rank], r.TStart)
				}
			case r.Func == recorder.FuncFsync || r.Func == recorder.FuncFdatasync || r.Func == recorder.FuncFflush:
				if st := fds.get(r.Arg(0)); st != nil {
					m := get(names[st.path]).times
					m.commits[r.Rank] = append(m.commits[r.Rank], r.TStart)
				}
			case r.Func == recorder.FuncLseek || r.Func == recorder.FuncFseek:
				st := fds.get(r.Arg(0))
				if st == nil {
					continue
				}
				switch off, whence, ret := r.Arg(1), r.Arg(2), r.Arg(3); whence {
				case recorder.SeekSet:
					st.offset = off
				case recorder.SeekCur:
					st.offset += off
				case recorder.SeekEnd:
					st.offset = ret
				}
			case r.Func == recorder.FuncFtruncate:
				if st := fds.get(r.Arg(0)); st != nil {
					sizeByPath[names[st.path]] = r.Arg(1)
				}
			case r.Func == recorder.FuncTruncate:
				sizeByPath[r.Path] = r.Arg(1)
			case r.IsDataOp():
				st := fds.get(r.Arg(0))
				if st == nil {
					continue
				}
				path := names[st.path]
				iv, ok := dataInterval(r, st, sizeByPath[path])
				if !ok {
					continue
				}
				iv.Origin, iv.Phase = origin, phase
				if iv.Oe > sizeByPath[path] {
					sizeByPath[path] = iv.Oe
				}
				f := get(path)
				f.intervals = append(f.intervals, annotated{Interval: iv})
			}
		}
	}
	for _, f := range files {
		for i := range f.intervals {
			iv := f.intervals[i].Interval
			f.intervals[i] = annotate(iv, f.times.opens[iv.Rank], f.times.commits[iv.Rank], f.times.closes[iv.Rank])
		}
	}
	return files
}

// The serial case of each entry point (a pool of one, never cancelled).

func extractAll(tr *recorder.Trace) []*FileAccesses {
	fas, _ := ExtractSharedCtx(context.Background(), tr, 1)
	return fas
}

func conflictsUnder(fa *FileAccesses, model pfs.Semantics) []Conflict {
	return conflictsMulti(fa, []pfs.Semantics{model})[0]
}

// conflictsMulti is one file's fused sweep, its lists index-matching models.
func conflictsMulti(fa *FileAccesses, models []pfs.Semantics) [][]Conflict {
	out := make([][]Conflict, len(models))
	detectConflictsMulti(fa, models, out, 1)
	return out
}

func analyzeVerdict(tr *recorder.Trace) Verdict {
	v, _ := verdictCtx(context.Background(), tr, 1)
	return v
}

// verdictCtx is the §6.3 verdict over one extraction and one fused sweep
// of both models on a pool of workers.
func verdictCtx(ctx context.Context, tr *recorder.Trace, workers int) (Verdict, error) {
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

func census(tr *recorder.Trace) *Census {
	c, _ := MetadataCensusParallelCtx(context.Background(), tr, 1)
	return c
}

func metaConflicts(tr *recorder.Trace) []MetaConflict {
	cs, _ := DetectMetadataConflictsParallelCtx(context.Background(), tr, 1)
	return cs
}

func globalPattern(fas []*FileAccesses) PatternMix {
	m, _ := GlobalPatternParallelCtx(context.Background(), fas, 1)
	return m
}

func localPattern(fas []*FileAccesses) PatternMix {
	m, _ := LocalPatternParallelCtx(context.Background(), fas, 1)
	return m
}

func classifyHighLevel(fas []*FileAccesses, opts HLOptions) []HighLevelPattern {
	ps, _ := ClassifyHighLevelParallelCtx(context.Background(), fas, opts, 1)
	return ps
}
