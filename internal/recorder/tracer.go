package recorder

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
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
	Aligned bool   // whether the first-barrier alignment has been applied
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

// MaxArgs is the most arguments a record may carry; both trace formats
// enforce it on read, and a longer emit fails trace assembly.
const MaxArgs = 64

// Entry is one record in a rank's log: fixed-size (32 bytes) and free of
// pointers, so a log of millions costs the garbage collector nothing to
// scan. Paths are IDs into the rank's path table and the args are the
// zig-zag varints the columnar args column stores, in the rank's arg
// bytes; Trace.Stream turns entries back into Records. The rank is the
// log's index.
type Entry struct {
	TStart, TEnd uint64
	path, path2  uint32 // 0 = none, k = the rank's paths[k-1]
	args         uint32 // offset of the record's args in the rank's arg bytes
	Func         Func
	Layer        Layer
	nargs        uint8
}

// rankTables holds what a rank's entries index: the path table, in first
// use order, and the args' varints.
type rankTables struct {
	paths []string
	args  []byte
}

// path resolves a path ID.
func (t *rankTables) path(id uint32) string {
	if id == 0 {
		return ""
	}
	return t.paths[id-1]
}

// maxArgBytes bounds a rank's arg bytes, which are addressed by a uint32
// offset. It is a variable only so tests can reach it with a small log.
var maxArgBytes uint64 = math.MaxUint32

// RankTracer collects the records of one rank: emitted by the running rank
// (from its goroutine only, so it needs no locking) or replayed from a
// decoded stream.
//
// Entries are appended to a list of chunks instead of one growing slice,
// so an entry is copied once on the way in and once when the trace is
// assembled, never by a regrowth. Chunks start at minChunk entries and
// double up to maxChunk, so a rank that emits little holds little. Paths
// are interned per rank and args appended to the rank's arg bytes; the
// caller's argument slice is only read.
type RankTracer struct {
	rank   int32
	chunks [][]Entry // full chunks, in emission order
	cur    []Entry   // chunk being filled
	n      int       // entries in chunks
	tabs   rankTables
	ids    map[string]uint32
	last   [2]lastPath // per path operand, the one interned last
	err    error       // the first emit that cannot become a record
}

// lastPath caches a path operand's most recent intern: successive records
// of a call sequence mostly name the same file (and dataset), so the map is
// consulted only when the operand changes.
type lastPath struct {
	s  string
	id uint32
}

// Chunk sizes, in entries.
const (
	minChunk = 16
	maxChunk = 4096
)

// NewRankTracer returns a tracer for the given rank.
func NewRankTracer(rank int) *RankTracer {
	return &RankTracer{rank: int32(rank)}
}

// Rank returns the rank this tracer belongs to.
func (t *RankTracer) Rank() int { return int(t.rank) }

// Emit appends a record with args as its arguments; r.Rank and r.Args are
// ignored. args is not retained, so a caller's variadic slice can stay on
// its stack. An emit with more than MaxArgs args is not kept: it fails the
// trace's assembly with a *TraceError.
func (t *RankTracer) Emit(r Record, args []int64) {
	switch {
	case len(args) > MaxArgs:
		t.fail(fmt.Sprintf("%d args (max %d)", len(args), MaxArgs))
		return
	case uint64(len(t.tabs.args)) > maxArgBytes-MaxArgs*binary.MaxVarintLen64:
		t.fail(fmt.Sprintf("more than %d arg bytes", maxArgBytes))
		return
	}
	e := Entry{
		TStart: r.TStart,
		TEnd:   r.TEnd,
		path:   t.intern(r.Path, &t.last[0]),
		path2:  t.intern(r.Path2, &t.last[1]),
		args:   uint32(len(t.tabs.args)),
		Func:   r.Func,
		Layer:  r.Layer,
		nargs:  uint8(len(args)),
	}
	for _, a := range args {
		t.tabs.args = binary.AppendVarint(t.tabs.args, a)
	}
	if len(t.cur) == cap(t.cur) {
		if t.cur != nil {
			t.chunks = append(t.chunks, t.cur)
			t.n += len(t.cur)
		}
		t.cur = make([]Entry, 0, min(max(2*cap(t.cur), minChunk), maxChunk))
	}
	t.cur = append(t.cur, e)
}

// fail keeps the first emit that cannot become a record, by its emission
// index.
func (t *RankTracer) fail(reason string) {
	if t.err == nil {
		t.err = &TraceError{Rank: t.Rank(), Record: t.Len(), Reason: reason}
	}
}

// intern returns s's path ID, adding it to the table on first use.
func (t *RankTracer) intern(s string, last *lastPath) uint32 {
	if s == "" {
		return 0
	}
	if s == last.s {
		return last.id
	}
	id, ok := t.ids[s]
	if !ok {
		if t.ids == nil {
			t.ids = make(map[string]uint32)
		}
		t.tabs.paths = append(t.tabs.paths, s)
		id = uint32(len(t.tabs.paths))
		t.ids[s] = id
	}
	*last = lastPath{s, id}
	return id
}

// Len returns the number of records collected so far.
func (t *RankTracer) Len() int { return t.n + len(t.cur) }

// take returns the collected entries as one slice of exactly Len()
// elements, in emission order, with the tables they index, and leaves the
// tracer empty.
func (t *RankTracer) take() ([]Entry, rankTables) {
	out := make([]Entry, 0, t.Len())
	for _, c := range t.chunks {
		out = append(out, c...)
	}
	out = append(out, t.cur...)
	tabs := t.tabs
	*t = RankTracer{rank: t.rank}
	return out, tabs
}

// WriteStream writes the records emitted so far, in emission order, to w
// as one columnar stream of blockRecords records per data block (4096 when
// blockRecords <= 0), and leaves the tracer empty.
func (t *RankTracer) WriteStream(w io.Writer, blockRecords int) error {
	if t.err != nil {
		return t.err
	}
	es, tabs := t.take()
	return writeStream(w, int(t.rank), es, &tabs, blockRecords)
}

// TraceError reports records that cannot form a trace: a malformed record
// or a rank with no MPI_Barrier to align to. Trace assembly returns it
// instead of a trace.
type TraceError struct {
	Rank   int
	Record int // index in the rank's stream; -1 when the fault is the whole rank's
	Reason string
}

func (e *TraceError) Error() string {
	if e.Record < 0 {
		return fmt.Sprintf("recorder: rank %d: %s", e.Rank, e.Reason)
	}
	return fmt.Sprintf("recorder: rank %d record %d: %s", e.Rank, e.Record, e.Reason)
}

// Trace is a complete multi-rank trace: each rank's log of entries in
// stream order, and the tables they index.
type Trace struct {
	Meta    Meta
	PerRank [][]Entry // indexed by rank
	tabs    []rankTables
}

// NewTrace assembles a run's trace from its per-rank tracers, taking their
// records: each tracer is left empty. Each rank in turn is
//
//   - sorted: records of layered calls are emitted at call exit, so a
//     library-layer record (whose TStart precedes its nested POSIX
//     records) follows them in emission order; a stable sort by entry
//     stamp gives the order the analysis (and a real tracer's
//     post-processing) expects, see cmpEntry;
//   - aligned, the paper's clock adjustment (§5.2): the run begins with an
//     MPI_Barrier, and every stamp is shifted so that the exit of the
//     rank's first barrier is time zero. The barrier exits at the same
//     true time on every rank, so this removes the per-rank clock skew up
//     to the bounded residual the paper also observes; stamps before it
//     clamp to zero;
//   - validated: TEnd >= TStart, entry stamps in order, function and layer
//     known;
//   - renumbered, so path IDs follow first use in stream order, the order
//     of the columnar dictionary.
//
// A malformed emit, a malformed record or a rank without an MPI_Barrier
// fails assembly with a *TraceError and no trace.
func NewTrace(meta Meta, tracers []*RankTracer) (*Trace, error) {
	tr := &Trace{Meta: meta, PerRank: make([][]Entry, len(tracers)), tabs: make([]rankTables, len(tracers))}
	tr.Meta.Aligned = true
	for i, rt := range tracers {
		if rt.Rank() != i {
			panic(fmt.Sprintf("recorder: tracer %d holds rank %d", i, rt.Rank()))
		}
		if rt.err != nil {
			return nil, rt.err
		}
		es, tabs := rt.take()
		slices.SortStableFunc(es, cmpEntry)
		if err := alignRank(i, es, &tabs); err != nil {
			return nil, err
		}
		tr.PerRank[i], tr.tabs[i] = es, tabs
	}
	return tr, nil
}

// cmpEntry orders a rank's entries by entry stamp. Equal entry stamps
// between I/O records put the enclosing (longer) record first, so
// containment-based layer attribution sees the frame opened. An MPI record
// compares equal to every record with its stamp, keeping emission order:
// that is its program order, which happens-before reconstruction depends
// on. This is not a strict weak order (two I/O records ordered by TEnd can
// both be "equal" to an MPI record between them), so the result depends
// on the stable sort's algorithm itself; slices.SortStableFunc runs the
// one sort.SliceStable runs.
func cmpEntry(a, b Entry) int {
	if a.TStart != b.TStart {
		return cmp.Compare(a.TStart, b.TStart)
	}
	if a.Layer == LayerMPI || b.Layer == LayerMPI {
		return 0
	}
	return cmp.Compare(b.TEnd, a.TEnd)
}

// alignRank shifts a sorted rank's stamps to its first barrier's exit,
// validates every record and renumbers its path IDs in first-use order.
func alignRank(rank int, es []Entry, tabs *rankTables) error {
	var off uint64
	found := false
	for i := range es {
		if es[i].Layer == LayerMPI && es[i].Func == FuncMPIBarrier {
			off, found = es[i].TEnd, true
			break
		}
	}
	if !found {
		return &TraceError{Rank: rank, Record: -1, Reason: "no MPI_Barrier to align to"}
	}
	renum := make([]uint32, len(tabs.paths)+1) // old ID -> new ID; 0 stays 0
	paths := make([]string, 0, len(tabs.paths))
	id := func(old uint32) uint32 {
		if old != 0 && renum[old] == 0 {
			paths = append(paths, tabs.paths[old-1])
			renum[old] = uint32(len(paths))
		}
		return renum[old]
	}
	var prev uint64
	for i := range es {
		e := &es[i]
		e.TStart, e.TEnd = sub0(e.TStart, off), sub0(e.TEnd, off)
		switch {
		case e.TEnd < e.TStart:
			return &TraceError{Rank: rank, Record: i, Reason: fmt.Sprintf("TEnd %d < TStart %d", e.TEnd, e.TStart)}
		case e.TStart < prev:
			return &TraceError{Rank: rank, Record: i, Reason: fmt.Sprintf("TStart %d < previous %d (stream not time-ordered)", e.TStart, prev)}
		case !e.Func.Valid():
			return &TraceError{Rank: rank, Record: i, Reason: fmt.Sprintf("invalid func %d", e.Func)}
		case int(e.Layer) >= NumLayers():
			return &TraceError{Rank: rank, Record: i, Reason: fmt.Sprintf("invalid layer %d", e.Layer)}
		}
		prev = e.TStart
		e.path, e.path2 = id(e.path), id(e.path2)
	}
	tabs.paths = paths
	return nil
}

func sub0(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// TraceOf returns the trace whose rank streams are the tracers' records
// in emission order, taking them: no sort, no alignment, no validation.
// Decoders use it, since a saved stream is already in stream order and
// aligned. An emit a tracer could not keep fails it with that emit's
// *TraceError, so a decoder never drops records unreported.
func TraceOf(meta Meta, tracers []*RankTracer) (*Trace, error) {
	tr := &Trace{Meta: meta, PerRank: make([][]Entry, len(tracers)), tabs: make([]rankTables, len(tracers))}
	for i, rt := range tracers {
		if rt.Rank() != i {
			panic(fmt.Sprintf("recorder: tracer %d holds rank %d", i, rt.Rank()))
		}
		if rt.err != nil {
			return nil, rt.err
		}
		tr.PerRank[i], tr.tabs[i] = rt.take()
	}
	return tr, nil
}

// NumRecords returns the total record count across ranks.
func (t *Trace) NumRecords() int {
	n := 0
	for _, es := range t.PerRank {
		n += len(es)
	}
	return n
}

// tables returns rank's tables (none for a trace built as a literal).
func (t *Trace) tables(rank int) *rankTables {
	if rank < len(t.tabs) {
		return &t.tabs[rank]
	}
	return &rankTables{}
}

// WriteStream writes rank's records to w as one columnar (SEMFSCOL1)
// stream — the bytes a trace directory holds for the rank.
func (t *Trace) WriteStream(w io.Writer, rank int) error {
	return writeStream(w, rank, t.PerRank[rank], t.tables(rank), 0)
}

// Stream walks one rank's records in stream order. The yielded Record is
// reused: it and its Args are valid only until the next call to Next.
type Stream struct {
	es   []Entry
	tabs *rankTables
	i    int
	rec  Record
	args [MaxArgs]int64
}

// Stream returns a walk over rank's records.
func (t *Trace) Stream(rank int) *Stream {
	return &Stream{es: t.PerRank[rank], tabs: t.tables(rank), rec: Record{Rank: int32(rank)}}
}

// Next advances to the next record, returning false at the end.
func (s *Stream) Next() bool {
	if s.i >= len(s.es) {
		return false
	}
	e := &s.es[s.i]
	s.i++
	r := &s.rec
	r.Layer, r.Func, r.TStart, r.TEnd = e.Layer, e.Func, e.TStart, e.TEnd
	r.Path, r.Path2 = s.tabs.path(e.path), s.tabs.path(e.path2)
	r.Args = nil
	if e.nargs > 0 {
		b := s.tabs.args[e.args:]
		for j := range int(e.nargs) {
			v, n := binary.Varint(b)
			s.args[j] = v
			b = b[n:]
		}
		r.Args = s.args[:e.nargs]
	}
	return true
}

// Record returns the current record.
func (s *Stream) Record() *Record { return &s.rec }

// Err is always nil: an in-memory log cannot be damaged.
func (s *Stream) Err() error { return nil }

// Records returns rank's records as a fresh slice, Args copied.
func (t *Trace) Records(rank int) []Record {
	out := make([]Record, 0, len(t.PerRank[rank]))
	s := t.Stream(rank)
	for s.Next() {
		r := *s.Record()
		r.Args = slices.Clone(r.Args)
		out = append(out, r)
	}
	return out
}
