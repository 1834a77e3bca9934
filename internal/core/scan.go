package core

import (
	"cmp"
	"context"
	"math"
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
// Err reports whether the stream ended cleanly. *colfmt.Cursor (a trace
// directory's rank) and *recorder.Stream (an in-memory trace's) have this
// shape.
type RecordStream interface {
	Next() bool
	Record() *recorder.Record
	Err() error
}

// Scan is everything the per-rank folds produce for one trace: the
// extraction, the metadata census, the run report's call counters, and the
// metadata and MPI events the metadata-conflict and happens-before passes
// read. The passes over a scan only read it.
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
	census callTable   // by (origin layer, func)
	calls  callTable   // by (layer, func)
	meta   []metaEvent // rank order, suppressed probes with noPath
	// ids interns every path the part's records name, so a record hashes
	// each of its paths once and every later lookup (its file, this
	// rank's size of it, a pending probe of it) indexes paths. Id 0 is
	// the empty path, which records without a path carry.
	ids   map[string]int32
	paths []pathState
	// metaPaths is the path table meta indexes, in order of first use.
	metaPaths []int32
	records   int
	// fold numbers the part's rank folds from 1; a pathState's rank-local
	// fields are valid only while they carry the current fold.
	fold int32
	// Rank-local buffers reused from one rank's fold to the next: the MPI
	// events collect in hbBuf before they are copied out at their exact
	// size, and frames backs the origin stack.
	hbBuf  []hbEvent
	frames []originFrame
}

// pathState is what the scan keeps per path, addressed by the path's id in
// its part.
type pathState struct {
	name string
	file int32 // index in the part's extraction, or -1
	meta int32 // index in metaPaths, or -1
	// Rank-local: the folding rank's view of the file size (for O_APPEND)
	// and the index in meta of its last stat-family use of the path that
	// no later touch has consumed yet, each valid while its fold is the
	// part's current one.
	sizeFold, pendFold int32
	size               int64
	pend               int
}

func newScanPart() *scanPart {
	return &scanPart{
		x:      &extraction{},
		census: newCallTable(),
		calls:  newCallTable(),
		ids:    map[string]int32{"": 0},
		paths:  []pathState{{file: -1, meta: -1}},
	}
}

// intern returns path's id, adding it on first use.
func (p *scanPart) intern(path string) int32 {
	if path == "" {
		return 0
	}
	if id, ok := p.ids[path]; ok {
		return id
	}
	id := int32(len(p.paths))
	p.ids[path] = id
	p.paths = append(p.paths, pathState{name: path, file: -1, meta: -1})
	return id
}

// file returns the extraction index of path id's file, adding the file on
// first sight.
func (p *scanPart) file(id int32) int32 {
	ps := &p.paths[id]
	if ps.file < 0 {
		ps.file = p.x.add(&FileAccesses{Path: ps.name}, 0)
	}
	return ps.file
}

// times returns rank's time tables on path id's file.
func (p *scanPart) times(id int32, rank int32) *RankTimes {
	return p.x.files[p.file(id)].timesFor(rank)
}

// metaID returns path id's index in the metadata path table, adding it on
// first use.
func (p *scanPart) metaID(id int32) int32 {
	ps := &p.paths[id]
	if ps.meta < 0 {
		ps.meta = int32(len(p.metaPaths))
		p.metaPaths = append(p.metaPaths, id)
	}
	return ps.meta
}

// callTable counts records by (layer, func) in dense rows of int32, one
// row per layer allocated on the layer's first record, so a per-rank part
// costs a few hundred bytes per layer it sees. A code outside the
// recorder's tables (a damaged but decodable trace can carry one), or a
// cell about to overflow, counts in the map instead.
type callTable struct {
	rows [][]int32 // by layer, then func
	more map[uint32]int
}

func newCallTable() callTable {
	return callTable{rows: make([][]int32, recorder.NumLayers())}
}

func (t *callTable) add(l recorder.Layer, f recorder.Func, n int) {
	if int(l) < len(t.rows) && int(f) < recorder.NumFuncs() {
		row := t.rows[l]
		if row == nil {
			row = make([]int32, recorder.NumFuncs())
			t.rows[l] = row
		}
		if c := int64(row[f]) + int64(n); c <= math.MaxInt32 {
			row[f] = int32(c)
			return
		}
	}
	if t.more == nil {
		t.more = make(map[uint32]int)
	}
	t.more[uint32(l)<<16|uint32(f)] += n
}

// each calls fn for every nonzero count.
func (t *callTable) each(fn func(recorder.Layer, recorder.Func, int)) {
	for l, row := range t.rows {
		for f, n := range row {
			if n != 0 {
				fn(recorder.Layer(l), recorder.Func(f), int(n))
			}
		}
	}
	for k, n := range t.more {
		fn(recorder.Layer(k>>16), recorder.Func(k), n)
	}
}

// rankScan is one rank's fold. Each record advances the origin attribution
// once and then every fold that reads it: extraction, census, metadata
// events, MPI events and the call counters.
type rankScan struct {
	part  *scanPart
	ext   rankExtractor
	stack originStack
	i     int // stream index of the next record
	hb    []hbEvent
}

func newRankScan(part *scanPart) *rankScan {
	part.fold++
	return &rankScan{
		part:  part,
		ext:   rankExtractor{p: part},
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
	p.calls.add(r.Layer, r.Func, 1)
	switch r.Layer {
	case recorder.LayerPOSIX:
		path := p.intern(r.Path)
		s.ext.step(r, path, origin, phase)
		if r.IsMetadataOp() {
			p.census.add(origin, r.Func, 1)
		}
		s.metaStep(r, path)
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

// ScanTraceCtx folds an in-memory trace's rank streams once on a pool of
// workers (1 folds serially); see ScanRanksCtx. Every call scans afresh.
func ScanTraceCtx(ctx context.Context, tr *recorder.Trace, workers int) (*Scan, error) {
	return ScanRanksCtx(ctx, len(tr.PerRank), workers, func(rank int) (RecordStream, func(), error) {
		return tr.Stream(rank), func() {}, nil
	})
}

// ExtractSharedCtx is the extraction of a fresh scan of the trace (§5.1
// offset reconstruction plus the per-rank open, close and commit times
// §5.2's record expansion searches, sorted by path).
func ExtractSharedCtx(ctx context.Context, tr *recorder.Trace, workers int) ([]*FileAccesses, error) {
	sc, err := ScanTraceCtx(ctx, tr, workers)
	if err != nil {
		return nil, err
	}
	return sc.Files, nil
}

// InvalidateExtraction does nothing: no scan outlives its caller. It
// remains only because bench/trace.go calls it.
func InvalidateExtraction(*recorder.Trace) {}

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
	merged.calls.each(func(l recorder.Layer, f recorder.Func, n int) { countCall(calls, l, f, n) })
	census := make(map[string]map[recorder.Func]int)
	merged.census.each(func(origin recorder.Layer, f recorder.Func, n int) { countCall(census, originName(origin), f, n) })
	metaPaths := make([]string, len(merged.metaPaths))
	for i, id := range merged.metaPaths {
		metaPaths[i] = merged.paths[id].name
	}
	return &Scan{
		Files:   out,
		Census:  &Census{Counts: census},
		Records: merged.records,
		Calls:   calls,
		meta:    metaByPath(merged.meta, metaPaths),
		hb:      hb,
	}, nil
}

// mergeScanParts folds per-rank parts in rank order, which reproduces the
// serial order of every table: paths are re-interned in the merged part,
// the metadata path table in each part's first-use order, events are
// concatenated with their paths remapped, counters added, and the
// extractions merged file by file. A rank's times are appended after the
// earlier parts' times for the same rank, and its staged chunks, re-tagged
// with the merged file indices, follow the earlier parts' chunks.
func mergeScanParts(parts []*scanPart) *scanPart {
	merged := newScanPart()
	x := merged.x
	for _, p := range parts {
		ids := make([]int32, len(p.paths)) // p's path ids in merged
		for k := range p.paths {
			ids[k] = merged.intern(p.paths[k].name)
		}
		metaIDs := make([]int32, len(p.metaPaths))
		for k, id := range p.metaPaths {
			metaIDs[k] = merged.metaID(ids[id])
		}
		for _, e := range p.meta {
			if e.path != noPath {
				e.path = metaIDs[e.path]
			}
			merged.meta = append(merged.meta, e)
		}
		merged.records += p.records
		p.calls.each(func(l recorder.Layer, f recorder.Func, n int) { merged.calls.add(l, f, n) })
		p.census.each(func(l recorder.Layer, f recorder.Func, n int) { merged.census.add(l, f, n) })

		files := make([]int32, len(p.x.files)) // p's file indices in merged
		for k := range p.paths {
			i := p.paths[k].file
			if i < 0 {
				continue
			}
			fa, ps := p.x.files[i], &merged.paths[ids[k]]
			if ps.file < 0 {
				ps.file = x.add(fa, p.x.counts[i])
				files[i] = ps.file
				continue
			}
			dst := x.files[ps.file]
			for _, rt := range fa.Ranks {
				d := dst.timesFor(rt.Rank)
				d.Opens = append(d.Opens, rt.Opens...)
				d.Closes = append(d.Closes, rt.Closes...)
				d.Commits = append(d.Commits, rt.Commits...)
			}
			x.counts[ps.file] += p.x.counts[i]
			files[i] = ps.file
		}
		for _, c := range p.x.chunks {
			for k := range c {
				c[k].file = files[c[k].file]
			}
		}
		x.chunks = append(x.chunks, p.x.chunks...)
		p.x.chunks = nil // the merged extraction's layout releases them
	}
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
