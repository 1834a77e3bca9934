package core

import (
	"context"
	"slices"
	"sort"
	"strconv"
	"sync"

	"repro/internal/pfs"
)

// ConflictKind distinguishes the paper's two hazard classes.
type ConflictKind int

const (
	RAW ConflictKind = iota // read-after-write
	WAW                     // write-after-write
)

func (k ConflictKind) String() string {
	if k == RAW {
		return "RAW"
	}
	return "WAW"
}

// Conflict is one detected conflicting access pair: the earlier operation is
// always a write; the pair would produce a wrong result under the given
// consistency model unless the PFS orders it (same-process pairs are ordered
// correctly by every PFS in the study except BurstFS; see §6.3).
type Conflict struct {
	Path        string
	Kind        ConflictKind
	SameProcess bool
	First       Interval
	Second      Interval
}

func (c Conflict) String() string { return string(c.AppendText(nil)) }

// AppendText appends the conflict's one-line form to b and returns the
// extended slice:
//
//	RAW-D /path [os,oe)@rR t=T -> [os,oe)@rR t=T
//
// (S for a same-process pair). It is the only conflict formatter; String
// and the CLI's listings both go through it.
func (c Conflict) AppendText(b []byte) []byte {
	b = append(b, c.Kind.String()...)
	if c.SameProcess {
		b = append(b, "-S "...)
	} else {
		b = append(b, "-D "...)
	}
	b = append(b, c.Path...)
	b = append(b, ' ')
	b = c.First.appendText(b)
	b = append(b, " -> "...)
	return c.Second.appendText(b)
}

// appendText appends "[os,oe)@rR t=T".
func (iv *Interval) appendText(b []byte) []byte {
	b = append(b, '[')
	b = strconv.AppendInt(b, iv.Os, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, iv.Oe, 10)
	b = append(b, ")@r"...)
	b = strconv.AppendInt(b, int64(iv.Rank), 10)
	b = append(b, " t="...)
	return strconv.AppendUint(b, iv.T, 10)
}

// maxConflictsPerFile caps the conflicts materialized for one (file, model)
// pair — the write-side counterpart of the read-read suppression in the
// overlap sweep. A write-heavy overlap storm (every write overlapping every
// write) would otherwise materialize a quadratic pair list; past the cap,
// further conflicts are dropped, EXCEPT that the first conflict of each of
// the four Table 4 classes is always kept, so the signature (and therefore
// every Verdict) is exact even on truncated lists. Set it before analysis
// starts; it is read concurrently by the parallel passes.
var maxConflictsPerFile = 1 << 20

// conflictAppender accumulates one (file, model) conflict list under
// maxConflictsPerFile, preserving class coverage (see the cap's doc).
type conflictAppender struct {
	out     []Conflict
	classes uint8 // bitmask of materialized Table 4 classes
	max     int
	admits  bool // the model admits the sweep's current candidate pair
}

func classBit(kind ConflictKind, same bool) uint8 {
	bit := uint8(1) << (uint(kind) * 2)
	if same {
		bit <<= 1
	}
	return bit
}

func (a *conflictAppender) add(c Conflict) {
	bit := classBit(c.Kind, c.SameProcess)
	if len(a.out) >= a.max && a.classes&bit != 0 {
		return
	}
	a.classes |= bit
	a.out = append(a.out, c)
}

// sortConflicts imposes the report order: entry time of the first
// operation, then of the second. The sort is stable, so timestamp ties keep
// the deterministic sweep emission order.
func sortConflicts(cs []Conflict) {
	slices.SortStableFunc(cs, func(a, b Conflict) int {
		switch {
		case a.First.T != b.First.T:
			if a.First.T < b.First.T {
				return -1
			}
			return 1
		case a.Second.T != b.Second.T:
			if a.Second.T < b.Second.T {
				return -1
			}
			return 1
		default:
			return 0
		}
	})
}

// conflictUnder evaluates one model's conflict predicate (§5.2) for a
// time-ordered candidate pair:
//
//	(1) the pair overlaps,
//	(2) the earlier operation is a write,
//	(3) commit semantics: the writer executes no commit operation between
//	    the two operations,
//	(4) session semantics: there is no close by the writer followed by an
//	    open by the second process, both between the two operations.
//
// Under strong semantics no pair conflicts (the PFS serializes them), and
// under eventual semantics every candidate pair conflicts (no operation
// bounds the propagation delay).
func conflictUnder(fa *FileAccesses, model pfs.Semantics, first, second *Interval) bool {
	switch model {
	case pfs.Commit:
		// Condition (3): the writer's first commit after t1 (its tc, one
		// binary search) must come before t2, otherwise the pair conflicts.
		w := fa.timesOf(first.Rank)
		return w == nil || firstAfter(w.Commits, first.T) >= second.T
	case pfs.Session:
		return !sessionOrdered(fa, first, second)
	case pfs.Eventual:
		return true
	}
	return false
}

// ModelConflicts is one model's slice of a fused analysis: the per-file
// conflict lists and the aggregate Table 4 signature.
type ModelConflicts struct {
	Model pfs.Semantics
	// Files index-matches the files the sweep ran over (nil where a file
	// has no conflicts); ByFile holds the same lists by path, files
	// without conflicts omitted.
	Files     [][]Conflict
	ByFile    map[string][]Conflict
	Signature ConflictSignature
}

// conflictBuf is the reusable scratch of one file's fused sweep: one
// appender per model, whose lists grow in buffers kept from file to file,
// and the arena each finished list is copied into at its exact size.
// Pooled like sweepBuf, so each worker cuts its files' lists from its own
// arena, and a pass makes an allocation per arena chunk, not per list.
type conflictBuf struct {
	apps  []conflictAppender
	arena []Conflict // the current chunk's unused tail
	chunk int        // the current chunk's length
}

// cut returns a zeroed run of n conflicts from the arena, capacity-clipped
// so an append to it copies instead of overwriting the next run. Chunks
// grow like staging chunks.
func (cb *conflictBuf) cut(n int) []Conflict {
	if len(cb.arena) < n {
		cb.chunk = min(max(2*cb.chunk, stageChunkMin), stageChunkMax)
		cb.arena = make([]Conflict, max(n, cb.chunk))
	}
	run := cb.arena[:n:n]
	cb.arena = cb.arena[n:]
	return run
}

var conflictBufs = sync.Pool{New: func() any { return new(conflictBuf) }}

// detectConflictsMulti finds the conflicting access pairs of one file
// (§5.2; see conflictUnder for the conditions), evaluating every model's
// predicate in ONE offset-sorted sweep of the file's intervals. For each
// candidate pair the Conflict value is built at most once and shared across
// the models that admit it; each model's list is capped by
// maxConflictsPerFile and sorted by sortConflicts.
//
// Every commit conflict is also a session conflict (a close is a commit),
// and on most files the two lists are equal. Until a candidate pair splits
// the two models, the commit list is not built; if none does, it is the
// session list, backing array included, so callers must treat the lists
// as read-only.
//
// out[j*stride] receives models[j]'s list, nil when it has no conflicts;
// each list is a capacity-clipped run of a pooled arena.
func detectConflictsMulti(fa *FileAccesses, models []pfs.Semantics, out [][]Conflict, stride int) {
	if !slices.ContainsFunc(models, func(m pfs.Semantics) bool { return m != pfs.Strong }) {
		return
	}
	cb := conflictBufs.Get().(*conflictBuf)
	defer conflictBufs.Put(cb)
	if len(cb.apps) < len(models) {
		cb.apps = append(cb.apps, make([]conflictAppender, len(models)-len(cb.apps))...)
	}
	apps := cb.apps[:len(models)]
	for i := range apps {
		apps[i] = conflictAppender{out: apps[i].out[:0], max: maxConflictsPerFile}
	}
	ci, si := slices.Index(models, pfs.Commit), slices.Index(models, pfs.Session)
	shared := ci >= 0 && si >= 0
	sweepOverlaps(fa.Intervals, func(p overlapPair) {
		first, second := &fa.Intervals[p.A], &fa.Intervals[p.B]
		for i, m := range models {
			apps[i].admits = m != pfs.Strong && conflictUnder(fa, m, first, second)
		}
		if shared && apps[ci].admits != apps[si].admits {
			// The first split: the commit list so far is the session
			// list so far, in its own buffer from here on.
			shared = false
			fork := apps[si]
			fork.out, fork.admits = append(apps[ci].out[:0], fork.out...), apps[ci].admits
			apps[ci] = fork
		}
		var c Conflict
		built := false
		for i := range apps {
			if !apps[i].admits || (shared && i == ci) {
				continue
			}
			if !built {
				c = Conflict{
					Path:        fa.Path,
					Kind:        kindOf(second),
					SameProcess: first.Rank == second.Rank,
					First:       *first,
					Second:      *second,
				}
				built = true
			}
			apps[i].add(c)
		}
	})
	for i := range apps {
		if shared && i == ci {
			continue // the session list, below
		}
		if n := len(apps[i].out); n > 0 {
			sortConflicts(apps[i].out)
			cs := cb.cut(n)
			copy(cs, apps[i].out)
			out[i*stride] = cs
		}
	}
	if shared {
		out[ci*stride] = out[si*stride]
	}
}

func kindOf(second *Interval) ConflictKind {
	if second.Write {
		return WAW
	}
	return RAW
}

// sessionOrdered reports whether condition (4) holds: a close by the
// writer's process at tc and an open by the reader's process at to exist
// with t1 < tc < to < t2.
func sessionOrdered(fa *FileAccesses, first, second *Interval) bool {
	w := fa.timesOf(first.Rank)
	if w == nil {
		return false
	}
	tc := firstAfter(w.Closes, first.T)
	if tc == noTime || tc >= second.T {
		return false
	}
	// An open by the second process strictly inside (tc, t2)?
	r := fa.timesOf(second.Rank)
	if r == nil {
		return false
	}
	opens := r.Opens
	idx := sort.Search(len(opens), func(i int) bool { return opens[i] > tc })
	return idx < len(opens) && opens[idx] < second.T
}

// ConflictSignature is one row of Table 4: which of the four potential
// conflict classes (§4.1) an application exhibits.
type ConflictSignature struct {
	WAWSame, WAWDiff bool
	RAWSame, RAWDiff bool
}

// Any reports whether any conflict class is present.
func (s ConflictSignature) Any() bool {
	return s.WAWSame || s.WAWDiff || s.RAWSame || s.RAWDiff
}

// HasDifferentProcess reports whether a cross-process conflict is present —
// the class that actually breaks applications on weak-semantics PFSs (§6.3).
func (s ConflictSignature) HasDifferentProcess() bool {
	return s.WAWDiff || s.RAWDiff
}

// merge ORs another signature into s (class presence is monotone, so the
// per-file merge order is immaterial).
func (s *ConflictSignature) merge(o ConflictSignature) {
	s.WAWSame = s.WAWSame || o.WAWSame
	s.WAWDiff = s.WAWDiff || o.WAWDiff
	s.RAWSame = s.RAWSame || o.RAWSame
	s.RAWDiff = s.RAWDiff || o.RAWDiff
}

// signatureOf aggregates conflicts into a Table 4 row.
func signatureOf(conflicts []Conflict) ConflictSignature {
	var s ConflictSignature
	for _, c := range conflicts {
		switch {
		case c.Kind == WAW && c.SameProcess:
			s.WAWSame = true
		case c.Kind == WAW:
			s.WAWDiff = true
		case c.Kind == RAW && c.SameProcess:
			s.RAWSame = true
		default:
			s.RAWDiff = true
		}
	}
	return s
}

// ConflictsOverFiles runs conflict detection for one model over
// already-extracted accesses — the single-model form of
// ConflictsAllForFilesCtx, serially. Files without conflicts are omitted
// from the map.
func ConflictsOverFiles(fas []*FileAccesses, model pfs.Semantics) (map[string][]Conflict, ConflictSignature) {
	ms, _ := ConflictsAllForFilesCtx(context.Background(), fas, []pfs.Semantics{model}, 1)
	return ms[0].ByFile, ms[0].Signature
}

// Verdict is the paper's bottom line for one application (§6.3): the
// weakest consistency model under which it runs correctly, given that
// same-process conflicts are handled by any PFS with per-process ordering.
type Verdict struct {
	Session ConflictSignature
	Commit  ConflictSignature
	// Weakest is the weakest model with no cross-process conflicts.
	Weakest pfs.Semantics
	// NeedsPerProcessOrdering is set when same-process conflicts exist, in
	// which case PFSs without per-process ordering (BurstFS) are unsafe
	// even at the Weakest level.
	NeedsPerProcessOrdering bool
}

// VerdictFrom derives the §6.3 verdict from the session and commit
// signatures.
func VerdictFrom(session, commit ConflictSignature) Verdict {
	v := Verdict{Session: session, Commit: commit}
	switch {
	case !session.HasDifferentProcess():
		v.Weakest = pfs.Session
	case !commit.HasDifferentProcess():
		v.Weakest = pfs.Commit
	default:
		v.Weakest = pfs.Strong
	}
	v.NeedsPerProcessOrdering = session.WAWSame || session.RAWSame ||
		commit.WAWSame || commit.RAWSame
	return v
}
