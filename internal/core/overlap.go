package core

import (
	"slices"
	"sync"
)

// OverlapPair indexes two overlapping intervals within a FileAccesses'
// Intervals slice, ordered so that Intervals[A].T <= Intervals[B].T.
type OverlapPair struct {
	A, B int
}

// sweepBuf is the reusable scratch of one overlap sweep: the index
// permutation Algorithm 1 sorts. Pooled so the per-file conflict sweep
// allocates nothing beyond its outputs.
type sweepBuf struct {
	idx []int32
}

var sweepBufs = sync.Pool{New: func() any { return new(sweepBuf) }}

// sweepOverlaps implements Algorithm 1: sort the tuples by starting
// offset, then sweep — for each interval, scan forward until an interval
// starts at or beyond its end (subsequent tuples cannot overlap it). The
// sort runs over a pooled index permutation.
//
// onPair is invoked for every overlapping pair (time-ordered) where the
// earlier operation is a write — the candidate conflicts of §4.1; read-read
// overlaps are never materialized, which keeps read-heavy workloads (e.g.
// LBANN, where every rank reads the whole file) from generating quadratic
// pair lists. (The conflict layer adds the write-side counterpart of that
// guard: see MaxConflictsPerFile.)
func sweepOverlaps(ivs []Interval, onPair func(OverlapPair)) {
	n := len(ivs)
	if n < 2 {
		return
	}
	sb := sweepBufs.Get().(*sweepBuf)
	defer sweepBufs.Put(sb)
	if cap(sb.idx) < n {
		sb.idx = make([]int32, n)
	}
	idx := sb.idx[:n]
	for i := range idx {
		idx[i] = int32(i)
	}
	// Total order (offset, time, index): deterministic regardless of input
	// permutation, and a typed comparator — no reflect-based swaps.
	slices.SortFunc(idx, func(a, b int32) int {
		ia, ib := &ivs[a], &ivs[b]
		switch {
		case ia.Os != ib.Os:
			if ia.Os < ib.Os {
				return -1
			}
			return 1
		case ia.T != ib.T:
			if ia.T < ib.T {
				return -1
			}
			return 1
		default:
			return int(a - b)
		}
	})

	for a := 0; a < n; a++ {
		ia := &ivs[idx[a]]
		for b := a + 1; b < n; b++ {
			ib := &ivs[idx[b]]
			if ib.Os >= ia.Oe {
				break // sorted by Os: no later tuple overlaps ia
			}
			// Time-order the pair; candidate conflicts need the earlier
			// operation to be a write.
			first, second := int(idx[a]), int(idx[b])
			if earlier(ivs, second, first) {
				first, second = second, first
			}
			if ivs[first].Write {
				onPair(OverlapPair{A: first, B: second})
			}
		}
	}
}

// earlier deterministically orders two intervals by entry time, breaking
// timestamp ties by slice index so the pair orientation is a function of
// the input alone.
func earlier(ivs []Interval, i, j int) bool {
	if ivs[i].T != ivs[j].T {
		return ivs[i].T < ivs[j].T
	}
	return i < j
}
