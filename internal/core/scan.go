package core

import (
	"cmp"
	"context"
	"slices"

	"repro/internal/recorder"
)

// The paper's analysis is an offline fold over Recorder's per-rank streams
// (§5): offsets, open/close/commit times, the metadata census, metadata
// events and MPI matching are all built one rank at a time. The scan does
// every one of those folds in a single pass over each rank's stream, so a
// record is decoded once and nothing per record outlives its step: a trace
// directory can be analysed from mapped rank files one rank at a time
// without ever existing as []Record.

// RecordStream yields one rank's records in stream order. The record
// Record returns, Args included, is valid only until the next call to
// Next, so a fold copies every field it keeps. After Next returns false,
// Err reports whether the stream ended cleanly. *colfmt.Cursor has this
// shape; SliceStream wraps an in-memory rank.
type RecordStream interface {
	Next() bool
	Record() *recorder.Record
	Err() error
}

// SliceStream is a RecordStream over an in-memory rank: the records of an
// in-memory trace, or a decoded v1 rank file.
type SliceStream struct {
	rs []recorder.Record
	i  int // index of the current record plus one
}

// NewSliceStream returns a stream over rs.
func NewSliceStream(rs []recorder.Record) *SliceStream { return &SliceStream{rs: rs} }

// Next advances to the next record.
func (s *SliceStream) Next() bool {
	if s.i >= len(s.rs) {
		return false
	}
	s.i++
	return true
}

// Record returns the current record.
func (s *SliceStream) Record() *recorder.Record { return &s.rs[s.i-1] }

// Err is always nil: a slice cannot be damaged.
func (s *SliceStream) Err() error { return nil }

// Scan is everything the per-rank folds produce for one trace: the
// extraction, the metadata census, the run report's call counters, and the
// metadata and MPI events the metadata-conflict and happens-before passes
// read. A cached scan is shared by every analysis of its trace, so all of
// it is read-only.
type Scan struct {
	// Files is the extraction (§5.1 offsets and the per-rank times of
	// §5.2's record expansion), sorted by path; see ExtractSharedCtx.
	Files []*FileAccesses
	// Census is the §6.4 metadata census; see MetadataCensusParallelCtx.
	Census *Census
	// Records is the number of records scanned.
	Records int
	// Calls tallies every record by layer and function.
	Calls map[recorder.Layer]map[recorder.Func]int

	meta metaIndex   // per path, stably sorted by time
	hb   [][]hbEvent // per rank, MPI records in stream order
}

// metaIndex holds a trace's metadata events grouped by path in one flat
// array: path i of paths owns events[start[i]:start[i+1]], stably sorted by
// time, so every path's list is in (time, rank, program) order.
type metaIndex struct {
	paths  []string
	start  []int32
	events []metaEvent
}

// scanPart accumulates the folds of one or more ranks. A pool of one folds
// every rank into one part; larger pools fold each rank into its own part
// and merge the parts in rank order, which reproduces the serial order of
// every table.
type scanPart struct {
	x      *extraction
	census map[string]map[recorder.Func]int
	meta   []metaEvent // rank order, suppressed probes with noPath
	// paths is the path table meta indexes, in order of first use;
	// pathIndex maps a path to its index.
	paths     []string
	pathIndex map[string]int32
	calls     map[uint32]int // by callKey: one lookup per record
	records   int
	// Rank-local buffers reused from one rank's fold to the next: the MPI
	// events collect in hbBuf before they are copied out at their exact
	// size, and frames backs the origin stack.
	hbBuf  []hbEvent
	frames []originFrame
}

func newScanPart() *scanPart {
	return &scanPart{
		x:         newExtraction(),
		census:    make(map[string]map[recorder.Func]int),
		pathIndex: make(map[string]int32),
		calls:     make(map[uint32]int),
	}
}

// pathID returns path's index in the part's path table, adding it on
// first use.
func (p *scanPart) pathID(path string) int32 {
	if i, ok := p.pathIndex[path]; ok {
		return i
	}
	i := int32(len(p.paths))
	p.pathIndex[path] = i
	p.paths = append(p.paths, path)
	return i
}

func callKey(l recorder.Layer, f recorder.Func) uint32 { return uint32(l)<<16 | uint32(f) }

// rankScan is one rank's fold. Each record advances the origin attribution
// once and then every fold that reads it: extraction, census, metadata
// events, MPI events and the call counters.
type rankScan struct {
	part  *scanPart
	ext   rankExtractor
	stack originStack
	i     int // stream index of the next record
	// pending maps a path to the index in part.meta of this rank's last
	// stat-family use of it that no later touch has consumed yet.
	pending map[string]int
	hb      []hbEvent
}

func newRankScan(part *scanPart) *rankScan {
	return &rankScan{
		part:  part,
		ext:   rankExtractor{x: part.x, sizeByPath: make(map[string]int64, 8)},
		stack: originStack{frames: part.frames[:0]},
		hb:    part.hbBuf[:0],
	}
}

// finish ends the rank's fold: it hands the rank-local buffers back to the
// part and returns the rank's MPI events at their exact size.
func (s *rankScan) finish() []hbEvent {
	s.part.hbBuf, s.part.frames = s.hb[:0], s.stack.frames[:0]
	return slices.Clone(s.hb)
}

// step folds one record. Nothing in r is retained.
func (s *rankScan) step(r *recorder.Record) {
	origin, phase := s.stack.step(s.i, r)
	s.i++
	p := s.part
	p.records++
	p.calls[callKey(r.Layer, r.Func)]++
	switch r.Layer {
	case recorder.LayerPOSIX:
		s.ext.step(r, origin, phase)
		if r.IsMetadataOp() {
			countCall(p.census, originName(origin), r.Func, 1)
		}
		s.metaStep(r)
	case recorder.LayerMPI:
		s.hb = append(s.hb, newHBEvent(r))
	}
}

// countCall adds n calls of f to m[k].
func countCall[K comparable](m map[K]map[recorder.Func]int, k K, f recorder.Func, n int) {
	fm, ok := m[k]
	if !ok {
		fm = make(map[recorder.Func]int)
		m[k] = fm
	}
	fm[f] += n
}

// scanTrace folds an in-memory trace (uncached; see ScanTraceCtx).
func scanTrace(ctx context.Context, tr *recorder.Trace, workers int) (*Scan, error) {
	return ScanRanksCtx(ctx, len(tr.PerRank), workers, func(rank int) (RecordStream, func(), error) {
		return NewSliceStream(tr.PerRank[rank]), func() {}, nil
	})
}

// ScanRanksCtx folds n rank streams on a pool of workers (see
// EffectiveWorkers) and merges them in rank order, so the Scan is identical
// at every worker count. open returns rank's stream and the function that
// releases it once the fold has read it to the end. A rank fails when open
// fails or its stream ends with an error, and the error returned is the
// lowest-ranked rank's, exactly as given. A cancelled ctx stops the pool
// at a rank boundary and returns ctx.Err().
func ScanRanksCtx(ctx context.Context, n, workers int, open func(rank int) (RecordStream, func(), error)) (*Scan, error) {
	defer startPass("extract")()
	errs := make([]error, n)
	hb := make([][]hbEvent, n)
	fold := func(rank int, part *scanPart) {
		st, release, err := open(rank)
		if err != nil {
			errs[rank] = err
			return
		}
		s := newRankScan(part)
		for st.Next() {
			s.step(st.Record())
		}
		errs[rank] = st.Err()
		release()
		hb[rank] = s.finish()
	}
	var merged *scanPart
	if EffectiveWorkers(workers) <= 1 || n <= 1 {
		merged = newScanPart()
		if err := ParallelForCtx(ctx, n, 1, func(rank int) { fold(rank, merged) }); err != nil {
			return nil, err
		}
	} else {
		parts := make([]*scanPart, n)
		if err := ParallelForCtx(ctx, n, workers, func(rank int) {
			parts[rank] = newScanPart()
			fold(rank, parts[rank])
		}); err != nil {
			return nil, err
		}
		merged = mergeScanParts(parts)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	out := merged.x.layout()
	calls := make(map[recorder.Layer]map[recorder.Func]int)
	for k, n := range merged.calls {
		countCall(calls, recorder.Layer(k>>16), recorder.Func(k), n)
	}
	return &Scan{
		Files:   out,
		Census:  &Census{Counts: merged.census},
		Records: merged.records,
		Calls:   calls,
		meta:    metaByPath(merged.meta, merged.paths),
		hb:      hb,
	}, nil
}

// mergeScanParts folds per-rank parts in rank order: extractions through
// mergePartials, events by concatenation with their paths remapped to the
// merged path table (built in the same first-use order as a serial fold's),
// counters by addition.
func mergeScanParts(parts []*scanPart) *scanPart {
	merged := newScanPart()
	xs := make([]*extraction, len(parts))
	for i, p := range parts {
		xs[i] = p.x
		remap := make([]int32, len(p.paths))
		for k, path := range p.paths {
			remap[k] = merged.pathID(path)
		}
		for _, e := range p.meta {
			if e.path != noPath {
				e.path = remap[e.path]
			}
			merged.meta = append(merged.meta, e)
		}
		merged.records += p.records
		for origin, m := range p.census {
			for f, n := range m {
				countCall(merged.census, origin, f, n)
			}
		}
		for k, n := range p.calls {
			merged.calls[k] += n
		}
	}
	merged.x = mergePartials(xs)
	return merged
}

// metaByPath groups the rank-ordered metadata events by path with a
// counting sort, skipping suppressed probes, the root and the empty path,
// and stably sorts each path's events by time.
func metaByPath(events []metaEvent, paths []string) metaIndex {
	start := make([]int32, len(paths)+1)
	keep := func(e *metaEvent) bool {
		return e.path != noPath && paths[e.path] != "" && paths[e.path] != "/"
	}
	for i := range events {
		if e := &events[i]; keep(e) {
			start[e.path+1]++
		}
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	next := slices.Clone(start[:len(paths)])
	out := make([]metaEvent, start[len(paths)])
	for i := range events {
		if e := &events[i]; keep(e) {
			out[next[e.path]] = *e
			next[e.path]++
		}
	}
	for i := range paths {
		slices.SortStableFunc(out[start[i]:start[i+1]], func(a, b metaEvent) int { return cmp.Compare(a.t, b.t) })
	}
	return metaIndex{paths: paths, start: start, events: out}
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
		part.chunks = nil // the merged extraction's layout releases them
	}
	return merged
}

// MetaConflictsCtx finds the scan's cross-process metadata dependencies
// (see DetectMetadataConflictsParallelCtx), sharding the per-path scans
// across a pool of workers.
func (s *Scan) MetaConflictsCtx(ctx context.Context, workers int) ([]MetaConflict, error) {
	defer startPass("meta-conflicts")()
	m := &s.meta
	per := make([][]MetaConflict, len(m.paths))
	if err := ParallelForCtx(ctx, len(m.paths), workers, func(i int) {
		if evs := m.events[m.start[i]:m.start[i+1]]; len(evs) > 0 {
			per[i] = metaConflictsForPath(m.paths[i], evs)
		}
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

// HB reconstructs the happens-before relation from the scan's MPI events
// (see BuildHB).
func (s *Scan) HB() (*HB, error) { return buildHBOver(s.hb) }
