package core

import (
	"context"

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
	app := conflictAppender{max: MaxConflictsPerFile}
	sweepOverlaps(fa.Intervals, func(p OverlapPair) {
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
func detectOverlapsBruteForce(ivs []Interval, onPair func(OverlapPair)) {
	for i := 0; i < len(ivs); i++ {
		for j := i + 1; j < len(ivs); j++ {
			a, b := &ivs[i], &ivs[j]
			if a.Os < b.Oe && b.Os < a.Oe {
				first, second := i, j
				if earlier(ivs, second, first) {
					first, second = second, first
				}
				if ivs[first].Write {
					onPair(OverlapPair{A: first, B: second})
				}
			}
		}
	}
}

// The serial case of each entry point (a pool of one, never cancelled).

func extractAll(tr *recorder.Trace) []*FileAccesses {
	fas, _ := extract(context.Background(), tr, 1)
	return fas
}

func conflictsUnder(fa *FileAccesses, model pfs.Semantics) []Conflict {
	return detectConflictsMulti(fa, []pfs.Semantics{model})[0]
}

func analyzeVerdict(tr *recorder.Trace) Verdict {
	v, _ := AnalyzeParallelCtx(context.Background(), tr, 1)
	return v
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
