package core

import "repro/internal/recorder"

// The §5.1 offset reconstruction is a per-record fold over one rank's
// stream in TStart order: rankExtractor carries the descriptor, size and
// origin state from one record to the next (extractRank drives it), and
// originStack is the attribution sweep it shares with attributeOrigins.

// originFrame is one not-yet-ended enclosing library call.
type originFrame struct {
	idx   int // stream index, the phase identity
	tend  uint64
	layer recorder.Layer
}

// originStack is the streaming form of the origin/phase attribution sweep:
// frames are library-layer records (non-POSIX, non-MPI) not yet known to
// have ended. Because streams are TStart-ordered, feeding records in order
// reproduces exactly what the old whole-slice precompute produced.
type originStack struct {
	frames []originFrame
}

// step computes the origin (layer of the outermost enclosing frame that
// covers r, or LayerApp) and phase (stream index of the innermost such
// frame, or -1) for the record at stream index i, then pushes r if it is
// itself a library-layer call.
func (s *originStack) step(i int, r *recorder.Record) (recorder.Layer, int) {
	for len(s.frames) > 0 && s.frames[len(s.frames)-1].tend < r.TStart {
		s.frames = s.frames[:len(s.frames)-1]
	}
	origin, phase := recorder.LayerApp, -1
	for _, fr := range s.frames { // bottom = outermost
		if fr.tend >= r.TEnd {
			origin = fr.layer
			break
		}
	}
	for k := len(s.frames) - 1; k >= 0; k-- { // top = innermost
		if s.frames[k].tend >= r.TEnd {
			phase = s.frames[k].idx
			break
		}
	}
	if r.Layer != recorder.LayerPOSIX && r.Layer != recorder.LayerMPI {
		s.frames = append(s.frames, originFrame{idx: i, tend: r.TEnd, layer: r.Layer})
	}
	return origin, phase
}

// rankExtractor folds one rank's records into per-file accesses one record
// at a time: descriptor offsets (§5.1), open/close/commit time tables, and
// origin/phase attribution all advance in a single pass.
type rankExtractor struct {
	files      map[string]*FileAccesses
	fds        fdTable
	sizeByPath map[string]int64 // this rank's view, for O_APPEND
	stack      originStack
	i          int // stream index of the next record
}

func newRankExtractor(files map[string]*FileAccesses) *rankExtractor {
	return &rankExtractor{files: files, sizeByPath: make(map[string]int64, 8)}
}

func (e *rankExtractor) get(path string) *FileAccesses {
	fa, ok := e.files[path]
	if !ok {
		fa = &FileAccesses{
			Path:          path,
			OpensByRank:   make(map[int32][]uint64),
			ClosesByRank:  make(map[int32][]uint64),
			CommitsByRank: make(map[int32][]uint64),
		}
		e.files[path] = fa
	}
	return fa
}

func (e *rankExtractor) noteSize(path string, end int64) {
	if end > e.sizeByPath[path] {
		e.sizeByPath[path] = end
	}
}

// step folds one record.
func (e *rankExtractor) step(r *recorder.Record) {
	origin, phase := e.stack.step(e.i, r)
	e.i++
	if r.Layer != recorder.LayerPOSIX {
		return
	}
	switch {
	case r.IsOpenOp():
		fd := r.Arg(2)
		if fd < 0 {
			return // failed open
		}
		flags := int(r.Arg(0))
		e.fds.set(fd, fdState{path: r.Path, appendMd: flags&recorder.OAppend != 0})
		if flags&recorder.OTrunc != 0 {
			e.sizeByPath[r.Path] = 0
		}
		fa := e.get(r.Path)
		fa.OpensByRank[r.Rank] = append(fa.OpensByRank[r.Rank], r.TStart)
	case r.IsCloseOp():
		if st := e.fds.closeFD(r.Arg(0)); st != nil {
			fa := e.get(st.path)
			fa.ClosesByRank[r.Rank] = append(fa.ClosesByRank[r.Rank], r.TStart)
			fa.CommitsByRank[r.Rank] = append(fa.CommitsByRank[r.Rank], r.TStart)
		}
	case r.Func == recorder.FuncFsync || r.Func == recorder.FuncFdatasync || r.Func == recorder.FuncFflush:
		if st := e.fds.get(r.Arg(0)); st != nil {
			fa := e.get(st.path)
			fa.CommitsByRank[r.Rank] = append(fa.CommitsByRank[r.Rank], r.TStart)
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
			e.sizeByPath[st.path] = r.Arg(1)
		}
	case r.Func == recorder.FuncTruncate:
		e.sizeByPath[r.Path] = r.Arg(1)
	case r.IsDataOp():
		iv, path, ok := dataInterval(r, &e.fds, e.sizeByPath)
		if !ok {
			return
		}
		iv.Origin, iv.Phase = origin, phase
		e.noteSize(path, iv.Oe)
		fa := e.get(path)
		fa.Intervals = append(fa.Intervals, iv)
	}
}
