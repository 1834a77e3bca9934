package core

import (
	"math/rand"
	"testing"

	"repro/internal/pfs"
)

// randomFA builds a random single-file access history with open/close/
// commit tables consistent with per-rank program order.
func randomFA(rng *rand.Rand) *FileAccesses {
	fa, _ := randomFATables(rng)
	return fa
}

// randomFATables is randomFA that also returns the map-based tables the
// schedule's Ranks must agree with. Ranks act in random order, so Ranks is
// built through timesFor's insertion path.
func randomFATables(rng *rand.Rand) (*FileAccesses, rankTables) {
	nRanks := 1 + rng.Intn(4)
	fa := &FileAccesses{Path: "/f"}
	want := newRankTables()
	var t uint64 = 1
	type state struct{ open bool }
	st := make([]state, nRanks)
	for ops := 0; ops < 40; ops++ {
		r := int32(rng.Intn(nRanks))
		t += uint64(rng.Intn(50)) + 1
		switch rng.Intn(5) {
		case 0: // open
			rt := fa.timesFor(r)
			rt.Opens = append(rt.Opens, t)
			want.opens[r] = append(want.opens[r], t)
			st[r].open = true
		case 1: // close (commit too)
			if st[r].open {
				rt := fa.timesFor(r)
				rt.Closes = append(rt.Closes, t)
				rt.Commits = append(rt.Commits, t)
				want.closes[r] = append(want.closes[r], t)
				want.commits[r] = append(want.commits[r], t)
				st[r].open = false
			}
		case 2: // fsync
			if st[r].open {
				rt := fa.timesFor(r)
				rt.Commits = append(rt.Commits, t)
				want.commits[r] = append(want.commits[r], t)
			}
		default: // data op
			if st[r].open {
				os := int64(rng.Intn(300))
				fa.Intervals = append(fa.Intervals, Interval{
					T: t, TEnd: t + 1, Rank: r,
					Os: os, Oe: os + int64(rng.Intn(100)) + 1,
					Write: rng.Intn(2) == 0,
				})
			}
		}
	}
	return fa, want
}

// TestPropertyCommitConflictImpliesSessionConflict checks the model
// hierarchy: any pair that conflicts under commit semantics must also
// conflict under session semantics (a close is a commit, so "no commit
// between" implies "no close between", and condition (4) cannot hold).
func TestPropertyCommitConflictImpliesSessionConflict(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		fa := randomFA(rng)
		commit := conflictsUnder(fa, pfs.Commit)
		session := conflictsUnder(fa, pfs.Session)
		key := func(c Conflict) [4]uint64 {
			return [4]uint64{c.First.T, uint64(c.First.Rank), c.Second.T, uint64(c.Second.Rank)}
		}
		sess := map[[4]uint64]bool{}
		for _, c := range session {
			sess[key(c)] = true
		}
		for _, c := range commit {
			if !sess[key(c)] {
				t.Fatalf("trial %d: commit conflict %v absent under session semantics", trial, c)
			}
		}
		// And eventual dominates session.
		eventual := conflictsUnder(fa, pfs.Eventual)
		if len(eventual) < len(session) {
			t.Fatalf("trial %d: eventual (%d) has fewer conflicts than session (%d)",
				trial, len(eventual), len(session))
		}
		// Strong never conflicts.
		if got := conflictsUnder(fa, pfs.Strong); len(got) != 0 {
			t.Fatalf("trial %d: strong produced conflicts", trial)
		}
	}
}

// TestPropertyConflictsAreOverlapSubset checks every reported conflict is a
// genuine overlapping write-first pair.
func TestPropertyConflictsAreOverlapSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		fa := randomFA(rng)
		for _, model := range []pfs.Semantics{pfs.Commit, pfs.Session, pfs.Eventual} {
			for _, c := range conflictsUnder(fa, model) {
				if !c.First.Write {
					t.Fatalf("trial %d: first op of %v is not a write", trial, c)
				}
				if c.First.T > c.Second.T {
					t.Fatalf("trial %d: conflict not time-ordered: %v", trial, c)
				}
				if c.First.Os >= c.Second.Oe || c.Second.Os >= c.First.Oe {
					t.Fatalf("trial %d: conflict does not overlap: %v", trial, c)
				}
				if (c.First.Rank == c.Second.Rank) != c.SameProcess {
					t.Fatalf("trial %d: SameProcess flag wrong: %v", trial, c)
				}
			}
		}
	}
}

// TestPropertyAnnotationConsistency checks the §5.2 record expansion:
// To <= T < TcCommit <= TcClose-or-later, and TcCommit is never after
// TcClose (closes are commits). It also checks that the commit predicate,
// which searches the writer's commits per candidate pair, is condition (3)
// over the expansion: the pair conflicts exactly when TcCommit is missing
// or not before the second operation.
func TestPropertyAnnotationConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		fa := randomFA(rng)
		for i := range fa.Intervals {
			iv := annotationsOf(fa, &fa.Intervals[i])
			if iv.To != noTime && iv.To > iv.T {
				t.Fatalf("To %d after T %d", iv.To, iv.T)
			}
			if iv.TcCommit != noTime && iv.TcCommit <= iv.T {
				t.Fatalf("TcCommit %d not after T %d", iv.TcCommit, iv.T)
			}
			if iv.TcClose != noTime && iv.TcCommit == noTime {
				t.Fatal("close exists but no commit (closes are commits)")
			}
			if iv.TcClose != noTime && iv.TcCommit != noTime && iv.TcCommit > iv.TcClose {
				t.Fatalf("first commit %d after first close %d", iv.TcCommit, iv.TcClose)
			}
		}
		sweepOverlaps(fa.Intervals, func(p overlapPair) {
			first, second := &fa.Intervals[p.A], &fa.Intervals[p.B]
			tc := annotationsOf(fa, first).TcCommit
			if got, want := conflictUnder(fa, pfs.Commit, first, second), tc == noTime || tc >= second.T; got != want {
				t.Fatalf("trial %d: commit predicate %v for %+v -> %+v with TcCommit %d, want %v", trial, got, *first, *second, tc, want)
			}
		})
	}
}
