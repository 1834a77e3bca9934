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
		rt := e.p.times(path, r.Rank)
		rt.Opens = append(rt.Opens, r.TStart)
	case r.IsCloseOp():
		if st := e.fds.closeFD(r.Arg(0)); st != nil {
			rt := e.p.times(st.path, r.Rank)
			rt.Closes = append(rt.Closes, r.TStart)
			rt.Commits = append(rt.Commits, r.TStart)
		}
	case r.Func == recorder.FuncFsync || r.Func == recorder.FuncFdatasync || r.Func == recorder.FuncFflush:
		if st := e.fds.get(r.Arg(0)); st != nil {
			rt := e.p.times(st.path, r.Rank)
			rt.Commits = append(rt.Commits, r.TStart)
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
		e.p.x.stage(e.p.file(st.path), iv)
	}
}

// Staged intervals are buffered in chunks that grow by doubling from
// stageChunkMin to stageChunkMax entries and are never re-copied: a
// partial of a many-rank trace with few intervals stays small, and a
// million intervals cost no more than a few hundred chunk allocations.
const (
	stageChunkMin = 64
	stageChunkMax = 4096
)

// stagedInterval is one extracted interval tagged with its file's index in
// the extraction that staged it.
type stagedInterval struct {
	iv   Interval
	file int32
}

// extraction accumulates the files of one or more rank streams. Each file's
// time tables grow in place, while its intervals are staged in chunks in
// fold order; layout then gives every file its slice of one arena, so a
// file's intervals are allocated once instead of regrown per append. A
// file's index is kept with its path's other state (pathState.file).
type extraction struct {
	files  []*FileAccesses // Path and Ranks; layout fills Intervals
	counts []int           // staged intervals per file
	chunks [][]stagedInterval
}

// add appends a file and returns its index.
func (x *extraction) add(fa *FileAccesses, staged int) int32 {
	x.files = append(x.files, fa)
	x.counts = append(x.counts, staged)
	return int32(len(x.files) - 1)
}

func (x *extraction) stage(file int32, iv Interval) {
	n := len(x.chunks)
	if n == 0 || len(x.chunks[n-1]) == cap(x.chunks[n-1]) {
		size := stageChunkMin
		if n > 0 {
			size = min(2*cap(x.chunks[n-1]), stageChunkMax)
		}
		x.chunks = append(x.chunks, make([]stagedInterval, 0, size))
		n++
	}
	x.chunks[n-1] = append(x.chunks[n-1], stagedInterval{iv: iv, file: file})
	x.counts[file]++
}

// layout returns the files sorted by path, each holding a capacity-clipped
// slice of one interval arena laid out in path order and filled in staging
// order, which is each file's fold (rank, then stream) order. Each staging
// chunk is released as soon as it is copied, so the arena and the staged
// copy are not both held in full.
func (x *extraction) layout() []*FileAccesses {
	order := make([]int32, len(x.files))
	total := 0
	for i, n := range x.counts {
		order[i] = int32(i)
		total += n
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(x.files[a].Path, x.files[b].Path) })
	arena := make([]Interval, total)
	out := make([]*FileAccesses, len(order))
	off := 0
	for k, i := range order {
		fa, n := x.files[i], x.counts[i]
		if n > 0 {
			fa.Intervals = arena[off : off : off+n]
		}
		off += n
		out[k] = fa
	}
	for i, c := range x.chunks {
		for k := range c {
			fa := x.files[c[k].file]
			fa.Intervals = append(fa.Intervals, c[k].iv)
		}
		x.chunks[i] = nil
	}
	x.chunks = nil
	return out
}
