// Package pfs implements an in-memory parallel file system with pluggable
// consistency semantics, following the categorization of Section 3 of the
// paper: strong (POSIX sequential consistency), commit (writes become
// globally visible on an explicit commit such as fsync or close), session
// (close-to-open visibility) and eventual (visibility after a propagation
// delay).
//
// Files are stored as lists of published extents carrying publish sequence
// numbers; each client additionally holds pending (not yet published)
// extents. The four models differ only in when a write moves from pending to
// published and in which published extents a read may observe:
//
//	strong:   published at write time (under simulated range locks);
//	          reads observe everything published.
//	commit:   published on fsync/fdatasync/close; reads observe everything
//	          published.
//	session:  published on close; reads observe only extents published
//	          before the reader opened the file (close-to-open).
//	eventual: published at write time but visible only after a propagation
//	          delay.
//
// In every model a client always observes its own writes in program order
// (the paper notes BurstFS as the lone exception; see Registry).
package pfs

import "fmt"

// Semantics identifies one of the four consistency models of Section 3.
type Semantics int

const (
	// Strong is POSIX sequential consistency (Section 3.1).
	Strong Semantics = iota
	// Commit makes writes globally visible upon an explicit commit
	// operation — fsync, fdatasync or close (Section 3.2).
	Commit
	// Session provides close-to-open visibility: writes are visible to
	// readers that open the file after the writer closed it (Section 3.3).
	Session
	// Eventual makes writes visible to everyone after a propagation delay,
	// with no commit operation required (Section 3.4).
	Eventual
)

var semanticsNames = [...]string{
	Strong:   "strong",
	Commit:   "commit",
	Session:  "session",
	Eventual: "eventual",
}

func (s Semantics) String() string {
	if int(s) < len(semanticsNames) {
		return semanticsNames[s]
	}
	return "semantics#" + string(rune('0'+int(s)))
}

// ParseSemantics maps a model name ("strong", "commit", "session",
// "eventual") back to its Semantics — the inverse of String, for CLI flags
// and checkpoint manifests.
func ParseSemantics(name string) (Semantics, error) {
	for i, n := range semanticsNames {
		if n == name {
			return Semantics(i), nil
		}
	}
	return 0, fmt.Errorf("pfs: unknown semantics %q (want strong|commit|session|eventual)", name)
}

// AllSemantics lists the four models strongest-first.
func AllSemantics() []Semantics { return []Semantics{Strong, Commit, Session, Eventual} }

// SystemInfo describes one real-world parallel file system as categorized in
// Table 1 of the paper.
type SystemInfo struct {
	Name      string
	Semantics Semantics
	// PerProcessOrdering reports whether conflicting accesses by the same
	// process take effect in program order. True for every PFS in the study
	// except BurstFS (and undefined-overlap systems PLFS/PVFS2; see §3.5).
	PerProcessOrdering bool
	Note               string
}

// Registry reproduces Table 1: HPC file systems and their consistency
// semantics, plus the per-process ordering discussion of Section 3.5.
func Registry() []SystemInfo {
	return []SystemInfo{
		{Name: "GPFS", Semantics: Strong, PerProcessOrdering: true},
		{Name: "Lustre", Semantics: Strong, PerProcessOrdering: true},
		{Name: "GekkoFS", Semantics: Strong, PerProcessOrdering: true, Note: "relaxed metadata, strict data consistency"},
		{Name: "BeeGFS", Semantics: Strong, PerProcessOrdering: true},
		{Name: "BatchFS", Semantics: Strong, PerProcessOrdering: true, Note: "relaxed metadata, strict data consistency"},
		{Name: "OrangeFS", Semantics: Strong, PerProcessOrdering: false, Note: "non-conflicting write semantics; overlapping writes undefined"},
		{Name: "BSCFS", Semantics: Commit, PerProcessOrdering: true},
		{Name: "UnifyFS", Semantics: Commit, PerProcessOrdering: true, Note: "commit via fsync or lamination"},
		{Name: "SymphonyFS", Semantics: Commit, PerProcessOrdering: true, Note: "commit via fsync"},
		{Name: "BurstFS", Semantics: Commit, PerProcessOrdering: false, Note: "read after two same-process writes may return either"},
		{Name: "NFS", Semantics: Session, PerProcessOrdering: true},
		{Name: "AFS", Semantics: Session, PerProcessOrdering: true},
		{Name: "DDN IME", Semantics: Session, PerProcessOrdering: true},
		{Name: "Gfarm/BB", Semantics: Session, PerProcessOrdering: true},
		{Name: "PLFS", Semantics: Eventual, PerProcessOrdering: false, Note: "overlapping writes undefined even with synchronization"},
		{Name: "echofs", Semantics: Eventual, PerProcessOrdering: true, Note: "POSIX locally per node; global visibility on transfer"},
		{Name: "MarFS", Semantics: Eventual, PerProcessOrdering: true},
	}
}
