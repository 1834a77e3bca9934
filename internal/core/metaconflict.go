package core

import (
	"fmt"
	pathpkg "path"
	"sort"

	"repro/internal/recorder"
)

// Metadata-operation conflict detection — the extension the paper leaves as
// future work ("we plan to expand our conflicts detection algorithm to
// support metadata operations", §7). Several PFSs relax *metadata*
// visibility (GekkoFS's decoupled metadata, BatchFS's client-funded
// batches): a namespace mutation by one process may not be promptly visible
// to others. An application depends on cross-process metadata visibility
// whenever one process mutates the namespace (creates, removes or resizes
// an entry) and a different process subsequently performs an operation
// whose outcome depends on that mutation.

// MetaConflictKind classifies the mutation a dependent operation relies on.
type MetaConflictKind int

const (
	// CreateUse: one process creates a file or directory, another then
	// opens/stats it (or creates inside the new directory).
	CreateUse MetaConflictKind = iota
	// RemoveUse: one process unlinks an entry, another then operates on
	// the name.
	RemoveUse
	// ResizeUse: one process truncates an entry, another then queries or
	// opens it.
	ResizeUse
)

func (k MetaConflictKind) String() string {
	switch k {
	case CreateUse:
		return "create-use"
	case RemoveUse:
		return "remove-use"
	default:
		return "resize-use"
	}
}

// MetaOpRef identifies one metadata operation in a trace.
type MetaOpRef struct {
	Rank int32
	T    uint64
	TEnd uint64
	Func recorder.Func
	Path string
}

// MetaConflict is a cross-process (mutation, use) pair: under relaxed
// metadata semantics the use may not observe the mutation.
type MetaConflict struct {
	Kind     MetaConflictKind
	Path     string // the path whose visibility the use depends on
	Mutation MetaOpRef
	Use      MetaOpRef
}

func (c MetaConflict) String() string {
	return fmt.Sprintf("%s %s: %s@r%d t=%d -> %s@r%d t=%d",
		c.Kind, c.Path,
		c.Mutation.Func, c.Mutation.Rank, c.Mutation.T,
		c.Use.Func, c.Use.Rank, c.Use.T)
}

// MetaSignature summarizes which metadata-conflict classes a trace exhibits
// across processes (the Table 4 analogue for metadata).
type MetaSignature struct {
	CreateUse, RemoveUse, ResizeUse bool
}

// metaEvent is one metadata operation as the per-path scan sees it. It
// holds no pointers: path indexes the scan part's path table (see
// scanPart.metaID), or is noPath for a suppressed probe, so a trace's
// events are one flat pointer-free array the collector never scans.
type metaEvent struct {
	t, tend  uint64
	rank     int32
	path     int32
	fn       recorder.Func
	mutation bool
	kind     uint8 // a MetaConflictKind, valid when mutation
}

// noPath marks a suppressed probe's event.
const noPath = -1

// ref expands the event into the operation it records on path p.
func (e *metaEvent) ref(p string) MetaOpRef {
	return MetaOpRef{Rank: e.rank, T: e.t, TEnd: e.tend, Func: e.fn, Path: p}
}

// metaStep collects one POSIX record's metadata events into the rank's
// part, with create-probe suppression: a stat-family use stays pending
// until the next record of this rank that names its path (as Path or
// Path2), and is dropped — its path set to noPath — when that record is a
// creating open of the path. A failed open is no dependency carrier and
// no touch. path is the id of r.Path.
func (s *rankScan) metaStep(r *recorder.Record, path int32) {
	isOpen := r.IsOpenOp()
	if isOpen && r.Arg(2) < 0 {
		return
	}
	p := s.part
	creating := isOpen && int(r.Arg(0))&recorder.OCreat != 0
	if ps := &p.paths[path]; ps.pendFold == p.fold {
		if creating {
			p.meta[ps.pend].path = noPath
		}
		ps.pendFold = 0
	}
	path2 := p.intern(r.Path2) // no Path2 is the empty path, id 0
	p.paths[path2].pendFold = 0
	use := func(id int32) metaEvent {
		return metaEvent{t: r.TStart, tend: r.TEnd, rank: r.Rank, path: p.metaID(id), fn: r.Func}
	}
	mutation := func(id int32, kind MetaConflictKind) metaEvent {
		e := use(id)
		e.mutation, e.kind = true, uint8(kind)
		return e
	}
	switch {
	case isOpen:
		if !creating {
			p.meta = append(p.meta, use(path))
			return
		}
		// Creating open: a mutation of the path and a use of the parent
		// directory.
		p.meta = append(p.meta, mutation(path, CreateUse))
		if int(r.Arg(0))&recorder.OTrunc != 0 {
			p.meta = append(p.meta, mutation(path, ResizeUse))
		}
		if dir := pathpkg.Dir(r.Path); dir != "/" && dir != "." {
			p.meta = append(p.meta, use(p.intern(dir)))
		}
	case r.Func == recorder.FuncMkdir:
		p.meta = append(p.meta, mutation(path, CreateUse))
	case r.Func == recorder.FuncUnlink || r.Func == recorder.FuncRemove:
		p.meta = append(p.meta, mutation(path, RemoveUse))
	case r.Func == recorder.FuncRename:
		p.meta = append(p.meta, mutation(path, RemoveUse), mutation(path2, CreateUse))
	case r.Func == recorder.FuncTruncate:
		p.meta = append(p.meta, mutation(path, ResizeUse))
	case r.Func == recorder.FuncStat || r.Func == recorder.FuncLstat ||
		r.Func == recorder.FuncAccess || r.Func == recorder.FuncOpendir:
		ps := &p.paths[path]
		ps.pend, ps.pendFold = len(p.meta), p.fold
		p.meta = append(p.meta, use(path))
	}
}

// metaConflictsForPath scans one path's event list, sorted by time (see
// metaByPath), for cross-process (mutation, use) pairs. evs is not
// modified.
func metaConflictsForPath(p string, evs []metaEvent) []MetaConflict {
	var out []MetaConflict
	for i := range evs {
		e := &evs[i]
		if e.mutation {
			continue
		}
		// Most recent prior cross-rank mutation; a single operation can
		// carry several mutation kinds (O_CREAT|O_TRUNC is both a
		// creation and a resize), so report each kind of that operation.
		for j := i - 1; j >= 0; j-- {
			m := &evs[j]
			if !m.mutation || m.rank == e.rank {
				continue
			}
			for k := j; k >= 0; k-- {
				mk := &evs[k]
				if !mk.mutation || mk.rank != m.rank || mk.t != m.t {
					break
				}
				out = append(out, MetaConflict{Kind: MetaConflictKind(mk.kind), Path: p, Mutation: mk.ref(p), Use: e.ref(p)})
			}
			break
		}
	}
	return out
}

// sortMetaConflicts orders conflicts by a total key so the output is
// deterministic regardless of map iteration order — ties on (Use.T, Path)
// are real (an O_CREAT|O_TRUNC mutation yields a create-use and a
// resize-use pair against the same use) and must not flap between runs.
func sortMetaConflicts(out []MetaConflict) {
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Use.T != b.Use.T {
			return a.Use.T < b.Use.T
		}
		if a.Path != b.Path {
			return a.Path < b.Path
		}
		if a.Use.Rank != b.Use.Rank {
			return a.Use.Rank < b.Use.Rank
		}
		if a.Mutation.T != b.Mutation.T {
			return a.Mutation.T > b.Mutation.T // most recent mutation first, as emitted
		}
		if a.Mutation.Rank != b.Mutation.Rank {
			return a.Mutation.Rank < b.Mutation.Rank
		}
		return a.Kind < b.Kind
	})
}

// MetaSignatureOf summarizes the detected metadata conflicts.
func MetaSignatureOf(cs []MetaConflict) MetaSignature {
	var s MetaSignature
	for _, c := range cs {
		switch c.Kind {
		case CreateUse:
			s.CreateUse = true
		case RemoveUse:
			s.RemoveUse = true
		case ResizeUse:
			s.ResizeUse = true
		}
	}
	return s
}

// ValidateMetaConflicts checks that every metadata dependency is ordered by
// the program's MPI synchronization (the §5.2 race-freedom argument applied
// to metadata).
func ValidateMetaConflicts(hb *HB, cs []MetaConflict) []MetaConflict {
	var unordered []MetaConflict
	for _, c := range cs {
		if !hb.orderedIO(c.Mutation.Rank, c.Mutation.TEnd, c.Use.Rank, c.Use.T) {
			unordered = append(unordered, c)
		}
	}
	return unordered
}
