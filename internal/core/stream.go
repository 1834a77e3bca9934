package core

import (
	"slices"
	"strings"

	"repro/internal/recorder"
)

// The §5.1 offset reconstruction is a per-record fold over one rank's
// stream in TStart order: rankExtractor carries the descriptor and size
// state from one record to the next, and originStack is the attribution
// sweep the rank's scan (scan.go) advances once per record for the
// extraction and the census alike.

// originFrame is one not-yet-ended enclosing library call.
type originFrame struct {
	idx   int // stream index, the phase identity
	tend  uint64
	layer recorder.Layer
}

// originStack is the streaming form of the origin/phase attribution sweep:
// frames are library-layer records (non-POSIX, non-MPI) not yet known to
// have ended, in stream order. Because streams are TStart-ordered, a frame
// that ended before a record starts can cover neither it nor any later
// record, so feeding records in order gives every record the origin and
// phase that the whole-slice definition (attributeOrigins, in the tests)
// gives it.
type originStack struct {
	frames []originFrame
}

// step computes the origin (layer of the outermost enclosing frame that
// covers r, or LayerApp) and phase (stream index of the innermost such
// frame, or -1) for the record at stream index i, then pushes r if it is
// itself a library-layer call. Every frame that ended before r starts is
// dropped wherever it sits: a frame can outlive a later one (FLASH's MPI-IO
// calls outlive the HDF5 call that made them), and an ended frame buried
// under it would otherwise stay live.
func (s *originStack) step(i int, r *recorder.Record) (recorder.Layer, int) {
	origin, phase := recorder.LayerApp, -1
	live := s.frames[:0]
	for _, fr := range s.frames { // bottom = outermost
		if fr.tend < r.TStart {
			continue
		}
		if fr.tend >= r.TEnd {
			if phase < 0 {
				origin = fr.layer
			}
			phase = fr.idx
		}
		live = append(live, fr)
	}
	s.frames = live
	if r.Layer != recorder.LayerPOSIX && r.Layer != recorder.LayerMPI {
		s.frames = append(s.frames, originFrame{idx: i, tend: r.TEnd, layer: r.Layer})
	}
	return origin, phase
}

// rankExtractor folds one rank's records into per-file accesses one record
// at a time: descriptor offsets (§5.1) and open/close/commit time tables
// advance in a single pass. Offset and size state is rank-local, so rank
// streams fold independently as long as each rank's records reach a
// path's tables in rank order. Paths arrive as the part's path ids (see
// scanPart.intern), so no step hashes a path.
type rankExtractor struct {
	p   *scanPart
	fds fdTable
}

// size is this rank's view of a path's size, for O_APPEND: 0 until the
// rank truncates or writes it.
func (e *rankExtractor) size(id int32) int64 {
	if ps := &e.p.paths[id]; ps.sizeFold == e.p.fold {
		return ps.size
	}
	return 0
}

func (e *rankExtractor) setSize(id int32, n int64) {
	ps := &e.p.paths[id]
	ps.size, ps.sizeFold = n, e.p.fold
}

// step folds one POSIX-layer record, whose Path has id path, with the
// origin and phase the rank's originStack computed.
func (e *rankExtractor) step(r *recorder.Record, path int32, origin recorder.Layer, phase int) {
	switch {
	case r.IsOpenOp():
		fd := r.Arg(2)
		if fd < 0 {
			return // failed open
		}
		flags := int(r.Arg(0))
		e.fds.set(fd, fdState{path: path, appendMd: flags&recorder.OAppend != 0})
		if flags&recorder.OTrunc != 0 {
			e.setSize(path, 0)
		}
		x := e.p.x
		rt := x.timesFor(e.p.file(path), r.Rank)
		rt.Opens = x.slots.append(rt.Opens, r.TStart)
	case r.IsCloseOp():
		if st := e.fds.closeFD(r.Arg(0)); st != nil {
			// The commit first: after an fsync it can grow in place.
			x := e.p.x
			rt := x.timesFor(e.p.file(st.path), r.Rank)
			rt.Commits = x.slots.append(rt.Commits, r.TStart)
			rt.Closes = x.slots.append(rt.Closes, r.TStart)
		}
	case r.Func == recorder.FuncFsync || r.Func == recorder.FuncFdatasync || r.Func == recorder.FuncFflush:
		if st := e.fds.get(r.Arg(0)); st != nil {
			x := e.p.x
			rt := x.timesFor(e.p.file(st.path), r.Rank)
			rt.Commits = x.slots.append(rt.Commits, r.TStart)
		}
	case r.Func == recorder.FuncLseek || r.Func == recorder.FuncFseek:
		st := e.fds.get(r.Arg(0))
		if st == nil {
			return
		}
		off, whence, ret := r.Arg(1), r.Arg(2), r.Arg(3)
		switch whence {
		case recorder.SeekSet:
			st.offset = off
		case recorder.SeekCur:
			st.offset += off
		case recorder.SeekEnd:
			// The file size is not derivable from one rank's record stream;
			// use the call's recorded return value, as a real tracer would.
			st.offset = ret
		}
	case r.Func == recorder.FuncFtruncate:
		if st := e.fds.get(r.Arg(0)); st != nil {
			e.setSize(st.path, r.Arg(1))
		}
	case r.Func == recorder.FuncTruncate:
		e.setSize(path, r.Arg(1))
	case r.IsDataOp():
		st := e.fds.get(r.Arg(0))
		if st == nil {
			return
		}
		iv, ok := dataInterval(r, st, e.size(st.path))
		if !ok {
			return
		}
		iv.Origin, iv.Phase = origin, phase
		if iv.Oe > e.size(st.path) {
			e.setSize(st.path, iv.Oe)
		}
		e.p.x.ivs.add(e.p.file(st.path), iv)
	}
}

// Staged intervals are buffered in chunks that grow by doubling from
// stageChunkMin to stageChunkMax entries and are never re-copied: a
// partial of a many-rank trace with few intervals stays small, and a
// million intervals cost no more than a few hundred chunk allocations.
// Slab chunks grow the same way.
const (
	stageChunkMin = 64
	stageChunkMax = 4096
)

// stage buffers an extraction's intervals in fold order, each tagged with
// its file's index in the extraction that staged it. Intervals and tags
// sit in parallel chunks, so a chunk of intervals is a plain []Interval
// that layout can hand out in place.
type stage struct {
	chunks [][]Interval
	files  [][]int32 // files[c][k] tags chunks[c][k]
}

func (s *stage) add(file int32, iv Interval) {
	n := len(s.chunks)
	if n == 0 || len(s.chunks[n-1]) == cap(s.chunks[n-1]) {
		size := stageChunkMin
		if n > 0 {
			size = min(2*cap(s.chunks[n-1]), stageChunkMax)
		}
		s.chunks = append(s.chunks, make([]Interval, 0, size))
		s.files = append(s.files, make([]int32, 0, size))
		n++
	}
	s.chunks[n-1] = append(s.chunks[n-1], iv)
	s.files[n-1] = append(s.files[n-1], file)
}

// absorb moves o's chunks after s's, re-tagged through files (o's file
// indices in s).
func (s *stage) absorb(o *stage, files []int32) {
	for _, tags := range o.files {
		for k, f := range tags {
			tags[k] = files[f]
		}
	}
	s.chunks = append(s.chunks, o.chunks...)
	s.files = append(s.files, o.files...)
	o.chunks, o.files = nil, nil // s's layout releases them
}

// slab hands out small lists from chunks: a list's first entry is taken
// from the current chunk, and the list grows in place while it ends where
// the chunk's last taken entry does. A rank's opens, commits and closes
// of a file arrive together, so most time lists never move, and no file
// costs a heap object for them; a list that cannot grow in place is
// appended to the heap. Every list is capacity-clipped, so an append by
// anyone else copies instead of overwriting the next list.
type slab[T any] struct {
	chunk []T
	used  int
}

func (s *slab[T]) append(list []T, v T) []T {
	n := len(list)
	if n > 0 && (s.used == len(s.chunk) || &list[n-1] != &s.chunk[s.used-1]) {
		return append(list, v)
	}
	if s.used == len(s.chunk) {
		s.chunk, s.used = make([]T, min(max(2*len(s.chunk), stageChunkMin), stageChunkMax)), 0
	}
	s.chunk[s.used] = v
	s.used++
	return s.chunk[s.used-n-1 : s.used : s.used]
}

// extraction accumulates the files of one or more rank streams. A file's
// times grow in place, its rank entries and time lists taken from slabs,
// while its intervals are staged in chunks in fold order; layout then
// gives every file its intervals without a heap object per file. A file's
// index is kept with its path's other state (pathState.file).
type extraction struct {
	files []FileAccesses // Path and Ranks; layout fills Intervals
	ivs   stage
	ranks slab[RankTimes]
	slots slab[uint64]
}

// add appends a file and returns its index.
func (x *extraction) add(path string) int32 {
	x.files = append(x.files, FileAccesses{Path: path})
	return int32(len(x.files) - 1)
}

// timesFor returns rank's time tables on file f, inserting an empty entry,
// in rank order, for a rank not yet present. The pointer is valid until
// the next insertion into the file's Ranks or the next add.
func (x *extraction) timesFor(f int32, rank int32) *RankTimes {
	rs := &x.files[f].Ranks
	n := len(*rs)
	switch {
	case n > 0 && (*rs)[n-1].Rank == rank:
		return &(*rs)[n-1]
	case n == 0 || (*rs)[n-1].Rank < rank:
		*rs = x.ranks.append(*rs, RankTimes{Rank: rank})
		return &(*rs)[n]
	}
	i, ok := slices.BinarySearchFunc(*rs, rank, cmpRank)
	if !ok {
		*rs = slices.Insert(*rs, i, RankTimes{Rank: rank})
	}
	return &(*rs)[i]
}

// layout returns the files sorted by path, each holding its intervals in
// staging order, which is each file's fold (rank, then stream) order (see
// layoutIntervals).
func (x *extraction) layout() []*FileAccesses {
	order := make([]int32, len(x.files))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(x.files[a].Path, x.files[b].Path) })
	x.layoutIntervals(order)
	out := make([]*FileAccesses, len(order))
	for k, i := range order {
		out[k] = &x.files[i]
	}
	return out
}

// layoutIntervals gives every file its intervals. A file whose staged
// intervals are one contiguous run of one chunk, as a file one rank writes
// from open to close without touching another file's data is, keeps that
// run in place; only the others are copied, in path order, into one arena.
// So an N-N trace's intervals are stored once, in their staging chunks,
// instead of staged and then copied. order lists the file indices in path
// order.
func (x *extraction) layoutIntervals(order []int32) {
	// runs[f] is file f's run in chunk c, [start, end), while its staged
	// intervals are contiguous; c is -1 once they are not.
	type run struct{ c, start, end, n int32 }
	runs := make([]run, len(x.files))
	for c, tags := range x.ivs.files {
		for k, f := range tags {
			switch r := &runs[f]; {
			case r.n == 0:
				*r = run{int32(c), int32(k), int32(k), 0}
				fallthrough
			case r.c == int32(c) && r.end == int32(k):
				r.end++
			default:
				r.c = -1
			}
			runs[f].n++
		}
	}
	// The copied files' runs, in path order: start is where the next
	// interval goes.
	total := int32(0)
	for _, i := range order {
		switch r := &runs[i]; {
		case r.n == 0:
		case r.c >= 0:
			x.files[i].Intervals = x.ivs.chunks[r.c][r.start:r.end:r.end]
		default:
			r.start, total = total, total+r.n
		}
	}
	// Copy, dropping each chunk once it is read: one that holds a kept
	// run stays alive through that run alone.
	arena := make([]Interval, total)
	for c, tags := range x.ivs.files {
		for k, f := range tags {
			if r := &runs[f]; r.c < 0 {
				arena[r.start] = x.ivs.chunks[c][k]
				r.start++
			}
		}
		x.ivs.chunks[c], x.ivs.files[c] = nil, nil
	}
	x.ivs.chunks, x.ivs.files = nil, nil
	for i, r := range runs {
		if r.c < 0 {
			x.files[i].Intervals = arena[r.start-r.n : r.start : r.start]
		}
	}
}
