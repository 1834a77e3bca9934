package core

import (
	"context"
	"fmt"

	"repro/internal/recorder"
)

// Streaming extraction: the §5.1 offset reconstruction consumes one record
// at a time in stream order, so it does not need a materialized []Record at
// all. RecordCursor is the pull seam a zero-copy decoder (the columnar
// format's mmap cursor, internal/recorder/colfmt) plugs into; rankExtractor
// is the per-record fold the slice and cursor extractions share, so the two
// paths cannot drift.

// RecordCursor yields one rank's records in stream (TStart) order. Next
// advances and reports whether a record is available; Record returns the
// current record, which the cursor may overwrite on the following Next —
// consumers must copy anything they keep (rankExtractor copies by value
// into intervals and tables). After Next returns false, Err distinguishes a
// clean end (nil) from a decode failure.
type RecordCursor interface {
	Next() bool
	Record() *recorder.Record
	Err() error
}

// sliceCursor adapts a materialized record slice to RecordCursor.
type sliceCursor struct {
	rs []recorder.Record
	i  int
}

// SliceCursor wraps an in-memory record stream as a RecordCursor — the shim
// that lets slice-backed ranks (v1 streams, tests) flow through the same
// cursor pipeline as mapped columnar ranks.
func SliceCursor(rs []recorder.Record) RecordCursor { return &sliceCursor{rs: rs, i: -1} }

func (c *sliceCursor) Next() bool {
	if c.i+1 >= len(c.rs) {
		return false
	}
	c.i++
	return true
}

func (c *sliceCursor) Record() *recorder.Record { return &c.rs[c.i] }
func (c *sliceCursor) Err() error               { return nil }

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

// step folds one record. r may be a cursor's reused record: everything kept
// is copied by value (interval fields, times, interned path strings).
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

// extractCursor drains one rank's cursor into files.
func extractCursor(c RecordCursor, files map[string]*FileAccesses) error {
	ext := newRankExtractor(files)
	for c.Next() {
		ext.step(c.Record())
	}
	return c.Err()
}

// ExtractCursors is the extraction over per-rank cursors instead of
// materialized slices: rank i's cursor plays the role of tr.PerRank[i].
// Cursors are single-use and each is consumed by exactly one worker.
func ExtractCursors(cursors []RecordCursor, workers int) ([]*FileAccesses, error) {
	return ExtractCursorsCtx(context.Background(), cursors, workers)
}

// ExtractCursorsCtx is ExtractCursors under a context. The output is
// byte-identical to ExtractSharedCtx on the same records at every worker
// count: serial walks share one map in rank order, parallel walks fold
// per-rank partial maps in rank order (the serial append order of every
// per-path table). Any cursor decode error fails the extraction; the lowest-ranked
// error is reported.
func ExtractCursorsCtx(ctx context.Context, cursors []RecordCursor, workers int) ([]*FileAccesses, error) {
	defer startPass("extract")()
	n := len(cursors)
	if EffectiveWorkers(workers) <= 1 || n <= 1 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		files := make(map[string]*FileAccesses)
		for rank, c := range cursors {
			if err := extractCursor(c, files); err != nil {
				return nil, fmt.Errorf("core: extracting rank %d: %w", rank, err)
			}
		}
		out := sortedFiles(files)
		for _, fa := range out {
			annotate(fa)
		}
		return out, nil
	}
	partial := make([]map[string]*FileAccesses, n)
	errs := make([]error, n)
	if err := ParallelForCtx(ctx, n, workers, func(r int) {
		m := make(map[string]*FileAccesses)
		errs[r] = extractCursor(cursors[r], m)
		partial[r] = m
	}); err != nil {
		return nil, err
	}
	for rank, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: extracting rank %d: %w", rank, err)
		}
	}
	out := sortedFiles(mergePartials(partial))
	if err := ParallelForCtx(ctx, len(out), workers, func(i int) { annotate(out[i]) }); err != nil {
		return nil, err
	}
	return out, nil
}

// mergePartials folds per-rank partial extraction maps in rank order, which
// reproduces the serial append order of every per-path table.
func mergePartials(partial []map[string]*FileAccesses) map[string]*FileAccesses {
	merged := make(map[string]*FileAccesses)
	for r := range partial {
		for p, part := range partial[r] {
			dst, ok := merged[p]
			if !ok {
				merged[p] = part
				continue
			}
			dst.Intervals = append(dst.Intervals, part.Intervals...)
			mergeTimes(dst.OpensByRank, part.OpensByRank)
			mergeTimes(dst.ClosesByRank, part.ClosesByRank)
			mergeTimes(dst.CommitsByRank, part.CommitsByRank)
		}
	}
	return merged
}
