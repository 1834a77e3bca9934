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
	"cmp"
	"slices"
	"sort"

	"repro/internal/recorder"
)

// Interval is one data operation expanded with the fields the conflict
// algorithm needs: the paper's tuple (t, r, os, oe, type). The §5.2 `to`
// and `tc` annotations are not stored: the conflict predicates find them
// per candidate pair with a binary search of the writer's RankTimes (see
// conflictUnder). Offsets are half-open: [Os, Oe). The 8-byte fields come
// first so the struct carries no padding between them.
type Interval struct {
	T    uint64 // entry timestamp
	TEnd uint64 // exit timestamp
	Os   int64
	Oe   int64

	// Phase identifies the enclosing library call (an index unique within
	// the rank stream), used to group a rank's accesses issued by a single
	// collective/library call. -1 when app-level.
	Phase int

	Rank  int32
	Write bool
	// Origin is the I/O layer responsible for this operation: the outermost
	// enclosing library-layer record, or LayerApp when the application
	// called POSIX directly.
	Origin recorder.Layer
}

// noTime marks a missing time: firstAfter's result when no time follows.
const noTime = ^uint64(0)

// FileAccesses collects everything the analysis needs about one file.
// Extraction shares one FileAccesses per file with every consumer, which
// must treat it as read-only.
type FileAccesses struct {
	Path string
	// Intervals holds every rank's data operations in extraction order:
	// each rank's intervals contiguous (its rank run), ranks ascending,
	// each run in the rank's stream order, which is time order for a
	// recorded trace. The per-file passes walk the rank runs in place (see
	// rankOrdered). It is a capacity-clipped slice of storage shared with
	// other files (an extraction's staging chunk or arena), so len == cap
	// and an append copies.
	Intervals []Interval
	// Ranks holds the per-rank operation times on this file, sorted by
	// rank, one entry per rank that opened, closed or committed it.
	Ranks []RankTimes
}

// RankTimes is one rank's open, close and commit (fsync/fdatasync/fflush
// or close) times on one file, in that rank's program order.
type RankTimes struct {
	Rank    int32
	Opens   []uint64
	Closes  []uint64
	Commits []uint64
}

// timesOf returns rank's time tables on the file, or nil when the rank
// never opened, closed or committed it. Extraction appends ranks in
// order, so the last entry is checked before the binary search.
func (fa *FileAccesses) timesOf(rank int32) *RankTimes {
	n := len(fa.Ranks)
	if n > 0 && fa.Ranks[n-1].Rank == rank {
		return &fa.Ranks[n-1]
	}
	i, ok := slices.BinarySearchFunc(fa.Ranks, rank, cmpRank)
	if !ok {
		return nil
	}
	return &fa.Ranks[i]
}

func cmpRank(rt RankTimes, rank int32) int { return cmp.Compare(rt.Rank, rank) }

// fdState tracks one open descriptor during offset reconstruction.
type fdState struct {
	path     int32 // the path's id in the scan part (scanPart.intern)
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
	big := new(fdState) // not &st, which would move every call's st to the heap
	*big = st
	t.big[fd] = big
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

// dataInterval converts a data-op record on the open descriptor st into an
// interval, advancing st's offset. appendAt is the rank's view of the
// file's size, where a write through an O_APPEND descriptor lands.
func dataInterval(r *recorder.Record, st *fdState, appendAt int64) (Interval, bool) {
	iv := Interval{T: r.TStart, TEnd: r.TEnd, Rank: r.Rank, Write: r.IsWriteOp()}
	var n int64
	switch r.Func {
	case recorder.FuncRead, recorder.FuncWrite, recorder.FuncReadv, recorder.FuncWritev:
		n = r.Arg(2) // return value: bytes transferred
		if n <= 0 {
			return iv, false
		}
		off := st.offset
		if iv.Write && st.appendMd {
			off = appendAt
		}
		iv.Os, iv.Oe = off, off+n
		st.offset = off + n
	case recorder.FuncFread, recorder.FuncFwrite:
		n = r.Arg(3)
		if n <= 0 {
			return iv, false
		}
		off := st.offset
		if iv.Write && st.appendMd {
			off = appendAt
		}
		iv.Os, iv.Oe = off, off+n
		st.offset = off + n
	case recorder.FuncPread, recorder.FuncPwrite:
		n = r.Arg(3)
		if n <= 0 {
			return iv, false
		}
		iv.Os, iv.Oe = r.Arg(2), r.Arg(2)+n
	default:
		return iv, false
	}
	return iv, true
}

// firstAfter returns the smallest element > t, or noTime.
func firstAfter(times []uint64, t uint64) uint64 {
	idx := sort.Search(len(times), func(i int) bool { return times[i] > t })
	if idx == len(times) {
		return noTime
	}
	return times[idx]
}
