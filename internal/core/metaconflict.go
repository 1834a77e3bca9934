package core

import (
	"fmt"
	"path"
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

// Any reports whether any class is present.
func (s MetaSignature) Any() bool { return s.CreateUse || s.RemoveUse || s.ResizeUse }

type metaEvent struct {
	ref      MetaOpRef
	mutation bool
	kind     MetaConflictKind // valid when mutation
}

// metaEventsRank collects one rank's metadata events (with create-probe
// suppression applied): it remembers the last stat-family use per path and
// drops it if the next touch of the path by this rank is a creating open.
// Suppressed events are returned with an empty Path.
func metaEventsRank(rs []recorder.Record) []metaEvent {
	pendingStat := make(map[string]int) // path -> index into local list
	var local []metaEvent
	flushStat := func(p string) {
		delete(pendingStat, p)
	}
	for i := range rs {
		r := &rs[i]
		if r.Layer != recorder.LayerPOSIX {
			continue
		}
		ref := MetaOpRef{Rank: r.Rank, T: r.TStart, TEnd: r.TEnd, Func: r.Func, Path: r.Path}
		switch {
		case r.IsOpenOp():
			flags := int(r.Arg(0))
			if r.Arg(2) < 0 {
				continue // failed open is not a dependency carrier
			}
			if flags&recorder.OCreat != 0 {
				// Creating open: a mutation of the path, a use of the
				// parent directory, and it cancels this rank's pending
				// existence probe.
				if idx, ok := pendingStat[r.Path]; ok {
					local[idx].ref.Path = "" // mark dropped
					flushStat(r.Path)
				}
				kind := CreateUse
				local = append(local, metaEvent{ref: ref, mutation: true, kind: kind})
				if flags&recorder.OTrunc != 0 {
					local = append(local, metaEvent{ref: ref, mutation: true, kind: ResizeUse})
				}
				if dir := path.Dir(r.Path); dir != "/" && dir != "." {
					dref := ref
					dref.Path = dir
					local = append(local, metaEvent{ref: dref})
				}
			} else {
				local = append(local, metaEvent{ref: ref})
			}
		case r.Func == recorder.FuncMkdir:
			local = append(local, metaEvent{ref: ref, mutation: true, kind: CreateUse})
		case r.Func == recorder.FuncUnlink || r.Func == recorder.FuncRemove:
			local = append(local, metaEvent{ref: ref, mutation: true, kind: RemoveUse})
		case r.Func == recorder.FuncRename:
			local = append(local, metaEvent{ref: ref, mutation: true, kind: RemoveUse})
			dst := ref
			dst.Path = r.Path2
			local = append(local, metaEvent{ref: dst, mutation: true, kind: CreateUse})
		case r.Func == recorder.FuncTruncate:
			local = append(local, metaEvent{ref: ref, mutation: true, kind: ResizeUse})
		case r.Func == recorder.FuncStat || r.Func == recorder.FuncLstat ||
			r.Func == recorder.FuncAccess || r.Func == recorder.FuncOpendir:
			local = append(local, metaEvent{ref: ref})
			pendingStat[r.Path] = len(local) - 1
		}
	}
	return local
}

// addMetaEvents folds one rank's event list into the per-path event map,
// skipping suppressed probes. Calling this in rank order for every rank
// gives each path's list a deterministic (rank, program-order) sequence.
func addMetaEvents(events map[string][]metaEvent, local []metaEvent) {
	for _, e := range local {
		p := e.ref.Path
		if p == "" || p == "/" {
			continue // suppressed create probe or root
		}
		events[p] = append(events[p], e)
	}
}

// metaConflictsForPath scans one path's event list (any insertion order;
// it stably re-sorts by time) for cross-process (mutation, use) pairs.
func metaConflictsForPath(p string, evs []metaEvent) []MetaConflict {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].ref.T < evs[j].ref.T })
	var out []MetaConflict
	for i, e := range evs {
		if e.mutation {
			continue
		}
		// Most recent prior cross-rank mutation; a single operation can
		// carry several mutation kinds (O_CREAT|O_TRUNC is both a
		// creation and a resize), so report each kind of that operation.
		for j := i - 1; j >= 0; j-- {
			m := evs[j]
			if !m.mutation || m.ref.Rank == e.ref.Rank {
				continue
			}
			for k := j; k >= 0; k-- {
				mk := evs[k]
				if !mk.mutation || mk.ref.Rank != m.ref.Rank || mk.ref.T != m.ref.T {
					break
				}
				out = append(out, MetaConflict{Kind: mk.kind, Path: p, Mutation: mk.ref, Use: e.ref})
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
		if !hb.OrderedIO(c.Mutation.Rank, c.Mutation.TEnd, c.Use.Rank, c.Use.T) {
			unordered = append(unordered, c)
		}
	}
	return unordered
}
