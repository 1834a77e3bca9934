// Package core implements the paper's analysis algorithms over multi-level
// I/O traces: byte-offset reconstruction for POSIX data operations (§5.1),
// overlap detection (Algorithm 1), conflict detection under commit and
// session consistency semantics (§5.2), access-pattern classification at the
// local and global levels (§4, Figure 1), high-level X-Y pattern
// classification (Table 3), the metadata-operation census (§6.4, Figure 3),
// happens-before validation of conflict ordering (§5.2), and per-application
// consistency-semantics verdicts (§6.3).
//
// The package consumes recorder traces only — offsets are re-derived from
// open flags, seek operations and transfer byte counts exactly as the
// paper's analysis does, never taken from simulator internals.
package core

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/recorder"
)

// Interval is one data operation expanded with the fields the conflict
// algorithm needs: the paper's tuple (t, r, os, oe, type) plus the
// `to`/`tc` annotations of §5.2. Offsets are half-open: [Os, Oe).
type Interval struct {
	T     uint64 // entry timestamp
	TEnd  uint64 // exit timestamp
	Rank  int32
	Os    int64
	Oe    int64
	Write bool

	// §5.2 record expansion, all with respect to this interval's rank and
	// file: To is the time of the last preceding open; TcCommit the time of
	// the first succeeding commit operation (fsync/fdatasync/fflush/close);
	// TcClose the time of the first succeeding close. ^uint64(0) when none.
	To       uint64
	TcCommit uint64
	TcClose  uint64

	// Origin is the I/O layer responsible for this operation: the outermost
	// enclosing library-layer record, or LayerApp when the application
	// called POSIX directly.
	Origin recorder.Layer
	// Phase identifies the enclosing library call (an index unique within
	// the rank stream), used to group a rank's accesses issued by a single
	// collective/library call. -1 when app-level.
	Phase int
}

// NoTime marks a missing To/Tc annotation.
const NoTime = ^uint64(0)

// FileAccesses collects everything the analysis needs about one file.
type FileAccesses struct {
	Path      string
	Intervals []Interval // all ranks, unsorted across ranks (per-rank time order)
	// Per-rank sorted operation times on this file.
	OpensByRank   map[int32][]uint64
	ClosesByRank  map[int32][]uint64
	CommitsByRank map[int32][]uint64
}

// fdState tracks one open descriptor during offset reconstruction.
type fdState struct {
	path     string
	offset   int64
	appendMd bool
	open     bool
}

// fdTableSpan bounds the dense descriptor array; larger or negative fds
// spill to the map. The simulated POSIX layer assigns fds monotonically
// from 3, so real traces live entirely in the dense span.
const fdTableSpan = 4096

// fdTable is the descriptor state of one rank during extraction: a dense
// slice for small fds (the overwhelmingly common case — no hashing in the
// per-record hot loop) with a map fallback for out-of-span descriptors.
type fdTable struct {
	small []fdState
	big   map[int64]*fdState
}

// get returns the live state for fd, or nil.
func (t *fdTable) get(fd int64) *fdState {
	if fd >= 0 && fd < int64(len(t.small)) {
		if st := &t.small[fd]; st.open {
			return st
		}
		return nil
	}
	return t.big[fd]
}

// set records fd as open with the given state.
func (t *fdTable) set(fd int64, st fdState) {
	st.open = true
	if fd >= 0 && fd < fdTableSpan {
		if fd >= int64(len(t.small)) {
			n := int64(cap(t.small))
			if n < 16 {
				n = 16
			}
			for n <= fd {
				n *= 2
			}
			if n > fdTableSpan {
				n = fdTableSpan
			}
			grown := make([]fdState, n)
			copy(grown, t.small)
			t.small = grown
		}
		t.small[fd] = st
		return
	}
	if t.big == nil {
		t.big = make(map[int64]*fdState)
	}
	t.big[fd] = &st
}

// closeFD removes fd and returns its former state, or nil if not open. The
// returned pointer is only valid until the slot is reused by a later set.
func (t *fdTable) closeFD(fd int64) *fdState {
	if fd >= 0 && fd < int64(len(t.small)) {
		if st := &t.small[fd]; st.open {
			st.open = false
			return st
		}
		return nil
	}
	if st, ok := t.big[fd]; ok {
		delete(t.big, fd)
		return st
	}
	return nil
}

// extractRank walks one rank's record stream and accumulates its file
// accesses into files. Offset and size state is rank-local (§5.1), so rank
// streams can be processed independently as long as each rank's records are
// appended to a path's tables in rank order. The per-record fold lives in
// rankExtractor (stream.go).
func extractRank(rs []recorder.Record, files map[string]*FileAccesses) {
	ext := newRankExtractor(files)
	for i := range rs {
		ext.step(&rs[i])
	}
}

// sortedFiles flattens an extraction map into the path-sorted slice every
// analysis consumes. Annotation is the caller's responsibility.
func sortedFiles(files map[string]*FileAccesses) []*FileAccesses {
	out := make([]*FileAccesses, 0, len(files))
	for _, fa := range files {
		out = append(out, fa)
	}
	slices.SortFunc(out, func(a, b *FileAccesses) int { return strings.Compare(a.Path, b.Path) })
	return out
}

// dataInterval converts a data-op record into an interval, updating the
// descriptor offset state.
func dataInterval(r *recorder.Record, fds *fdTable, sizeByPath map[string]int64) (Interval, string, bool) {
	iv := Interval{T: r.TStart, TEnd: r.TEnd, Rank: r.Rank, Write: r.IsWriteOp(),
		To: NoTime, TcCommit: NoTime, TcClose: NoTime}
	var st *fdState
	var n int64
	switch r.Func {
	case recorder.FuncRead, recorder.FuncWrite, recorder.FuncReadv, recorder.FuncWritev:
		st = fds.get(r.Arg(0))
		if st == nil {
			return iv, "", false
		}
		n = r.Arg(2) // return value: bytes transferred
		if n <= 0 {
			return iv, "", false
		}
		off := st.offset
		if iv.Write && st.appendMd {
			off = sizeByPath[st.path]
		}
		iv.Os, iv.Oe = off, off+n
		st.offset = off + n
	case recorder.FuncFread, recorder.FuncFwrite:
		st = fds.get(r.Arg(0))
		if st == nil {
			return iv, "", false
		}
		n = r.Arg(3)
		if n <= 0 {
			return iv, "", false
		}
		off := st.offset
		if iv.Write && st.appendMd {
			off = sizeByPath[st.path]
		}
		iv.Os, iv.Oe = off, off+n
		st.offset = off + n
	case recorder.FuncPread, recorder.FuncPwrite:
		st = fds.get(r.Arg(0))
		if st == nil {
			return iv, "", false
		}
		n = r.Arg(3)
		if n <= 0 {
			return iv, "", false
		}
		iv.Os, iv.Oe = r.Arg(2), r.Arg(2)+n
	default:
		return iv, "", false
	}
	return iv, st.path, true
}

// annotate fills the To/Tc fields of every interval from the per-rank
// open/close/commit time tables using binary search (§5.2's "one or two
// binary searches").
func annotate(fa *FileAccesses) {
	for i := range fa.Intervals {
		iv := &fa.Intervals[i]
		iv.To = lastBefore(fa.OpensByRank[iv.Rank], iv.T)
		iv.TcCommit = firstAfter(fa.CommitsByRank[iv.Rank], iv.T)
		iv.TcClose = firstAfter(fa.ClosesByRank[iv.Rank], iv.T)
	}
}

// lastBefore returns the largest element <= t, or NoTime.
func lastBefore(times []uint64, t uint64) uint64 {
	idx := sort.Search(len(times), func(i int) bool { return times[i] > t })
	if idx == 0 {
		return NoTime
	}
	return times[idx-1]
}

// firstAfter returns the smallest element > t, or NoTime.
func firstAfter(times []uint64, t uint64) uint64 {
	idx := sort.Search(len(times), func(i int) bool { return times[i] > t })
	if idx == len(times) {
		return NoTime
	}
	return times[idx]
}

// attributeOrigins computes, for every record in a rank stream, the layer
// of the outermost enclosing library-layer record (by time containment) and
// the stream index of the innermost one (the "phase"). It is the
// whole-slice form of originStack's streaming sweep (stream.go).
func attributeOrigins(rs []recorder.Record) ([]recorder.Layer, []int) {
	origins := make([]recorder.Layer, len(rs))
	phases := make([]int, len(rs))
	var stack originStack
	for i := range rs {
		origins[i], phases[i] = stack.step(i, &rs[i])
	}
	return origins, phases
}
