package core

import (
	"testing"

	"repro/internal/pfs"
)

// mkFA builds a FileAccesses whose Ranks hold explicit open/close/commit
// tables, from which the conflict predicates derive each interval's §5.2
// annotations.
func mkFA(path string, ivs []Interval, opens, closes, commits map[int32][]uint64) *FileAccesses {
	return &FileAccesses{
		Path:      path,
		Intervals: ivs,
		Ranks:     rankTables{opens: opens, closes: closes, commits: commits}.ranks(),
	}
}

func TestStrongNeverConflicts(t *testing.T) {
	fa := mkFA("/f", []Interval{
		iv(10, 0, 0, 100, true),
		iv(20, 1, 0, 100, false),
	}, nil, nil, nil)
	if got := conflictsUnder(fa, pfs.Strong); len(got) != 0 {
		t.Fatalf("strong semantics produced conflicts: %v", got)
	}
}

func TestCommitConflictWithoutCommit(t *testing.T) {
	fa := mkFA("/f", []Interval{
		iv(10, 0, 0, 100, true),
		iv(50, 1, 50, 60, false),
	}, nil, nil, nil)
	got := conflictsUnder(fa, pfs.Commit)
	if len(got) != 1 {
		t.Fatalf("conflicts = %v", got)
	}
	c := got[0]
	if c.Kind != RAW || c.SameProcess {
		t.Fatalf("conflict misclassified: %v", c)
	}
}

func TestCommitResolvedByFsyncBetween(t *testing.T) {
	fa := mkFA("/f", []Interval{
		iv(10, 0, 0, 100, true),
		iv(50, 1, 50, 60, false),
	}, nil, nil, map[int32][]uint64{0: {30}}) // writer committed at t=30
	if got := conflictsUnder(fa, pfs.Commit); len(got) != 0 {
		t.Fatalf("commit at t=30 should clear the conflict: %v", got)
	}
}

func TestCommitAfterSecondOpDoesNotHelp(t *testing.T) {
	fa := mkFA("/f", []Interval{
		iv(10, 0, 0, 100, true),
		iv(50, 1, 50, 60, false),
	}, nil, nil, map[int32][]uint64{0: {70}}) // commit too late
	if got := conflictsUnder(fa, pfs.Commit); len(got) != 1 {
		t.Fatalf("late commit must not clear the conflict: %v", got)
	}
}

func TestCommitByWrongProcessDoesNotHelp(t *testing.T) {
	fa := mkFA("/f", []Interval{
		iv(10, 0, 0, 100, true),
		iv(50, 1, 50, 60, false),
	}, nil, nil, map[int32][]uint64{1: {30}}) // reader committed, not writer
	if got := conflictsUnder(fa, pfs.Commit); len(got) != 1 {
		t.Fatalf("reader's commit must not clear the conflict: %v", got)
	}
}

func TestSessionConflictAndResolution(t *testing.T) {
	ivs := []Interval{
		iv(10, 0, 0, 100, true),
		iv(80, 1, 0, 10, false),
	}
	// No close/open pair: conflict.
	fa := mkFA("/f", ivs, nil, nil, nil)
	if got := conflictsUnder(fa, pfs.Session); len(got) != 1 {
		t.Fatalf("expected session conflict: %v", got)
	}
	// Writer closes at 30, reader opens at 50: ordered.
	fa = mkFA("/f", ivs,
		map[int32][]uint64{1: {50}},
		map[int32][]uint64{0: {30}},
		map[int32][]uint64{0: {30}})
	if got := conflictsUnder(fa, pfs.Session); len(got) != 0 {
		t.Fatalf("close-then-open should clear the conflict: %v", got)
	}
	// Close after the reader's open: still a conflict.
	fa = mkFA("/f", ivs,
		map[int32][]uint64{1: {20}},
		map[int32][]uint64{0: {30}},
		map[int32][]uint64{0: {30}})
	if got := conflictsUnder(fa, pfs.Session); len(got) != 1 {
		t.Fatalf("open-before-close must stay a conflict: %v", got)
	}
}

func TestSessionFsyncAloneDoesNotResolve(t *testing.T) {
	// The FLASH situation: fsync (commit) between the writes but no
	// close/open — conflict under session, clean under commit.
	ivs := []Interval{
		iv(10, 0, 96, 368, true),
		iv(80, 1, 96, 368, true),
	}
	fa := mkFA("/f", ivs, nil, nil, map[int32][]uint64{0: {40}})
	if got := conflictsUnder(fa, pfs.Session); len(got) != 1 {
		t.Fatalf("session must conflict despite fsync: %v", got)
	}
	if got := conflictsUnder(fa, pfs.Commit); len(got) != 0 {
		t.Fatalf("commit must be clean with fsync between: %v", got)
	}
	c := conflictsUnder(fa, pfs.Session)[0]
	if c.Kind != WAW || c.SameProcess {
		t.Fatalf("misclassified: %v", c)
	}
}

func TestSameProcessSessionCloseReopenResolves(t *testing.T) {
	// Same process writes, closes, reopens, rewrites: condition (4) permits
	// r1 == r2, so the pair is ordered.
	ivs := []Interval{
		iv(10, 0, 0, 128, true),
		iv(80, 0, 0, 128, true),
	}
	fa := mkFA("/f", ivs,
		map[int32][]uint64{0: {5, 50}},
		map[int32][]uint64{0: {30}},
		map[int32][]uint64{0: {30}})
	if got := conflictsUnder(fa, pfs.Session); len(got) != 0 {
		t.Fatalf("close-reopen by same process should order the pair: %v", got)
	}
}

func TestEventualAlwaysConflicts(t *testing.T) {
	ivs := []Interval{
		iv(10, 0, 0, 100, true),
		iv(80, 1, 0, 10, false),
	}
	fa := mkFA("/f", ivs,
		map[int32][]uint64{1: {50}},
		map[int32][]uint64{0: {30}},
		map[int32][]uint64{0: {30}})
	if got := conflictsUnder(fa, pfs.Eventual); len(got) != 1 {
		t.Fatalf("eventual semantics should flag every candidate: %v", got)
	}
}

func TestWriteAfterReadIsNotAConflict(t *testing.T) {
	fa := mkFA("/f", []Interval{
		iv(10, 0, 0, 100, false), // read first
		iv(50, 1, 0, 100, true),  // write second
	}, nil, nil, nil)
	if got := conflictsUnder(fa, pfs.Session); len(got) != 0 {
		t.Fatalf("WAR pair flagged: %v", got)
	}
}

func TestSignature(t *testing.T) {
	cs := []Conflict{
		{Kind: WAW, SameProcess: true},
		{Kind: RAW, SameProcess: false},
	}
	s := signatureOf(cs)
	if !s.WAWSame || !s.RAWDiff || s.WAWDiff || s.RAWSame {
		t.Fatalf("signature = %+v", s)
	}
	if !s.Any() || !s.HasDifferentProcess() {
		t.Fatal("signature predicates wrong")
	}
	var empty ConflictSignature
	if empty.Any() || empty.HasDifferentProcess() {
		t.Fatal("empty signature predicates wrong")
	}
}

func TestConflictString(t *testing.T) {
	c := Conflict{Path: "/f", Kind: WAW, SameProcess: false,
		First: iv(1, 0, 0, 10, true), Second: iv(2, 1, 5, 15, true)}
	s := c.String()
	if s == "" || c.Kind.String() != "WAW" || RAW.String() != "RAW" {
		t.Fatalf("String() broken: %q", s)
	}
}
