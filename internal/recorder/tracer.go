package recorder

import (
	"fmt"
	"sort"
)

// Meta describes a trace: which application configuration produced it and at
// what scale. It is persisted alongside the per-rank record streams.
type Meta struct {
	App     string // application name, e.g. "FLASH"
	Library string // I/O library configuration, e.g. "HDF5"
	Variant string // sub-configuration, e.g. "fbs" / "nofbs"
	Ranks   int
	PPN     int
	Steps   int    // time steps executed
	Seed    uint64 // simulation seed
	Aligned bool   // whether Align has been applied
}

// ConfigName returns the display name used in the paper's tables, e.g.
// "LAMMPS-ADIOS" or "FLASH-fbs".
func (m Meta) ConfigName() string {
	name := m.App
	if m.Variant != "" {
		name += "-" + m.Variant
	} else if m.Library != "" && m.Library != "POSIX" || multiLib(m.App) {
		name += "-" + m.Library
	}
	return name
}

// multiLib lists applications that appear in the paper with several I/O
// library configurations, so their display names always carry the library.
func multiLib(app string) bool {
	switch app {
	case "LAMMPS", "ParaDiS", "HACC-IO":
		return true
	}
	return false
}

// RankTracer collects the records emitted by one rank. It is used from that
// rank's goroutine only and therefore needs no locking.
//
// Records are appended to a list of chunks instead of one growing slice, so
// a record is copied once on the way in and once when NewTrace flattens the
// rank, never by a regrowth. Chunks start at minChunk records and double up
// to maxChunk, so a rank that emits little holds little. Args live in a
// per-rank arena of int64 chunks sized the same way: a record's Args is a
// capacity-capped window of the arena, and the caller's argument slice is
// only read.
type RankTracer struct {
	rank   int32
	chunks [][]Record // full chunks, in emission order
	cur    []Record   // chunk being filled
	n      int        // records in chunks
	arena  []int64    // arena chunk being filled
}

// Chunk sizes, in records for the record chunks and in int64s for the
// arena.
const (
	minChunk      = 16
	maxChunk      = 4096
	minArenaChunk = 64
	maxArenaChunk = 1024
)

// NewRankTracer returns a tracer for the given rank.
func NewRankTracer(rank int) *RankTracer {
	return &RankTracer{rank: int32(rank)}
}

// Rank returns the rank this tracer belongs to.
func (t *RankTracer) Rank() int { return int(t.rank) }

// Emit appends a record, forcing its Rank field to the tracer's rank and
// setting its Args to a copy of args (nil when args is empty); r.Args is
// ignored. args is not retained, so a caller's variadic slice can stay on
// its stack.
func (t *RankTracer) Emit(r Record, args []int64) {
	r.Rank = t.rank
	r.Args = nil
	if len(args) > 0 {
		if len(args) > cap(t.arena)-len(t.arena) {
			t.arena = make([]int64, 0, max(nextChunk(cap(t.arena), minArenaChunk, maxArenaChunk), len(args)))
		}
		lo := len(t.arena)
		t.arena = append(t.arena, args...)
		r.Args = t.arena[lo:len(t.arena):len(t.arena)]
	}
	if len(t.cur) == cap(t.cur) {
		if t.cur != nil {
			t.chunks = append(t.chunks, t.cur)
			t.n += len(t.cur)
		}
		t.cur = make([]Record, 0, nextChunk(cap(t.cur), minChunk, maxChunk))
	}
	t.cur = append(t.cur, r)
}

// nextChunk returns the capacity of the chunk after one of capacity prev:
// lo first, then doubling up to hi.
func nextChunk(prev, lo, hi int) int {
	return min(max(2*prev, lo), hi)
}

// Len returns the number of records collected so far.
func (t *RankTracer) Len() int { return t.n + len(t.cur) }

// take returns the collected records as one slice of exactly Len()
// elements, in emission order, and releases the chunks. The arena stays
// shared with the returned records' Args.
func (t *RankTracer) take() []Record {
	out := make([]Record, 0, t.Len())
	for _, c := range t.chunks {
		out = append(out, c...)
	}
	out = append(out, t.cur...)
	t.chunks, t.cur, t.n = nil, nil, 0
	return out
}

// Trace is a complete multi-rank trace.
type Trace struct {
	Meta    Meta
	PerRank [][]Record // indexed by rank; each slice in emission order
}

// NewTrace assembles a trace from per-rank tracers, taking their records:
// each tracer is left empty. Records of layered calls are emitted at call
// exit, so a library-layer record (whose TStart precedes its nested POSIX
// records) appears after them in emission order; assembly stable-sorts
// each rank's stream by entry timestamp, the order the analysis (and a
// real tracer's post-processing) expects.
func NewTrace(meta Meta, tracers []*RankTracer) *Trace {
	tr := &Trace{Meta: meta, PerRank: make([][]Record, len(tracers))}
	for i, rt := range tracers {
		if rt.Rank() != i {
			panic(fmt.Sprintf("recorder: tracer %d holds rank %d", i, rt.Rank()))
		}
		rs := rt.take()
		sortRank(rs)
		tr.PerRank[i] = rs
	}
	return tr
}

// sortRank stable-sorts one rank's records from emission order into entry
// order.
func sortRank(rs []Record) {
	sort.SliceStable(rs, func(a, b int) bool {
		if rs[a].TStart != rs[b].TStart {
			return rs[a].TStart < rs[b].TStart
		}
		// Equal entry stamps between I/O records: the enclosing (longer)
		// record first, so containment-based layer attribution sees the
		// frame opened. MPI records keep emission order — it is their
		// program order, which happens-before reconstruction depends on.
		if rs[a].Layer == LayerMPI || rs[b].Layer == LayerMPI {
			return false
		}
		return rs[a].TEnd > rs[b].TEnd
	})
}

// NumRecords returns the total record count across ranks.
func (t *Trace) NumRecords() int {
	n := 0
	for _, rs := range t.PerRank {
		n += len(rs)
	}
	return n
}

// Align implements the paper's clock-adjustment step (§5.2): the run begins
// with an MPI_Barrier; each rank's trace is shifted so that the exit of that
// first barrier is time zero. Since the simulated barrier exit happens at
// the same true time on every rank, alignment removes the per-rank clock
// skew up to the (bounded) residual the paper also observes. Records that
// end before the barrier exits are clamped to zero. Align is idempotent.
func (t *Trace) Align() error {
	if t.Meta.Aligned {
		return nil
	}
	offsets := make([]uint64, len(t.PerRank))
	for rank, rs := range t.PerRank {
		found := false
		for i := range rs {
			if rs[i].Layer == LayerMPI && rs[i].Func == FuncMPIBarrier {
				offsets[rank] = rs[i].TEnd
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("recorder: rank %d has no MPI_Barrier to align to", rank)
		}
	}
	for rank, rs := range t.PerRank {
		off := offsets[rank]
		for i := range rs {
			rs[i].TStart = sub0(rs[i].TStart, off)
			rs[i].TEnd = sub0(rs[i].TEnd, off)
		}
	}
	t.Meta.Aligned = true
	return nil
}

func sub0(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// AllByTime returns every record across ranks merged into a single slice
// ordered by (TStart, rank, emission order). Per-rank streams are already
// time-ordered, so this is a k-way merge implemented as a stable sort.
func (t *Trace) AllByTime() []Record {
	out := make([]Record, 0, t.NumRecords())
	for _, rs := range t.PerRank {
		out = append(out, rs...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].TStart != out[j].TStart {
			return out[i].TStart < out[j].TStart
		}
		return out[i].Rank < out[j].Rank
	})
	return out
}

// Filter returns the records (across all ranks, unordered between ranks) for
// which keep returns true.
func (t *Trace) Filter(keep func(*Record) bool) []Record {
	var out []Record
	for _, rs := range t.PerRank {
		for i := range rs {
			if keep(&rs[i]) {
				out = append(out, rs[i])
			}
		}
	}
	return out
}

// Validate checks structural invariants: per-rank streams are time-ordered,
// TEnd >= TStart, rank fields match the stream index, and function/layer
// values are known. It returns the first violation found.
func (t *Trace) Validate() error {
	for rank, rs := range t.PerRank {
		var prev uint64
		for i := range rs {
			r := &rs[i]
			if int(r.Rank) != rank {
				return fmt.Errorf("rank %d stream holds record for rank %d at index %d", rank, r.Rank, i)
			}
			if r.TEnd < r.TStart {
				return fmt.Errorf("rank %d record %d: TEnd %d < TStart %d", rank, i, r.TEnd, r.TStart)
			}
			if r.TStart < prev {
				return fmt.Errorf("rank %d record %d: TStart %d < previous %d (stream not time-ordered)", rank, i, r.TStart, prev)
			}
			prev = r.TStart
			if !r.Func.Valid() {
				return fmt.Errorf("rank %d record %d: invalid func %d", rank, i, r.Func)
			}
			if int(r.Layer) >= NumLayers() {
				return fmt.Errorf("rank %d record %d: invalid layer %d", rank, i, r.Layer)
			}
		}
	}
	return nil
}
