package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/pfs"
)

var allModels = []pfs.Semantics{pfs.Strong, pfs.Commit, pfs.Session, pfs.Eventual}

// TestFusedMatchesPerModelRandom: the single-sweep multi-model pass must be
// byte-identical to one per-model oracle sweep per model, on randomized
// histories.
func TestFusedMatchesPerModelRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 300; trial++ {
		fa := randomFA(rng)
		lists := conflictsMulti(fa, allModels)
		for i, m := range allModels {
			want := detectConflictsOracle(fa, m)
			if !reflect.DeepEqual(lists[i], want) {
				t.Fatalf("trial %d: fused list under %v diverges\nfused: %v\nwant:  %v",
					trial, m, lists[i], want)
			}
		}
	}
}

// TestConflictCapPreservesSignature: under a tiny maxConflictsPerFile the
// materialized list truncates but the Table 4 signature stays exact (the
// appender always admits the first conflict of an unseen class), and the
// fused pass still matches the per-model oracle exactly.
func TestConflictCapPreservesSignature(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	orig := maxConflictsPerFile
	defer func() { maxConflictsPerFile = orig }()
	for trial := 0; trial < 100; trial++ {
		fa := randomFA(rng)

		maxConflictsPerFile = orig
		full := conflictsUnder(fa, pfs.Eventual)
		if len(full) < 8 {
			continue // need a storm for the cap to bind
		}
		wantSig := signatureOf(full)

		maxConflictsPerFile = 3
		capped := conflictsUnder(fa, pfs.Eventual)
		// At most cap entries plus one extra per late-appearing class.
		if len(capped) > 3+4 {
			t.Fatalf("trial %d: cap not applied: %d conflicts", trial, len(capped))
		}
		if len(capped) >= len(full) {
			t.Fatalf("trial %d: cap did not truncate (%d vs %d)", trial, len(capped), len(full))
		}
		if got := signatureOf(capped); got != wantSig {
			t.Fatalf("trial %d: capped signature %+v, want %+v", trial, got, wantSig)
		}
		lists := conflictsMulti(fa, allModels)
		for i, m := range allModels {
			if want := detectConflictsOracle(fa, m); !reflect.DeepEqual(lists[i], want) {
				t.Fatalf("trial %d: capped fused list under %v diverges", trial, m)
			}
		}
	}
}

// TestConflictAppenderClassCoverage pins the cap mechanics: a class seen
// only after the cap is reached is still admitted.
func TestConflictAppenderClassCoverage(t *testing.T) {
	app := conflictAppender{max: 2}
	waw := Conflict{Kind: WAW, SameProcess: false}
	raw := Conflict{Kind: RAW, SameProcess: true}
	app.add(waw)
	app.add(waw)
	app.add(waw) // past cap, class already seen -> dropped
	if len(app.out) != 2 {
		t.Fatalf("got %d kept, want 2", len(app.out))
	}
	app.add(raw) // past cap but unseen class -> kept
	if len(app.out) != 3 {
		t.Fatalf("unseen class past cap: got %d kept, want 3", len(app.out))
	}
	if got := signatureOf(app.out); !got.WAWDiff || !got.RAWSame {
		t.Fatalf("signature lost a class: %+v", got)
	}
}

// TestFdTableSpill pins the dense/map split of the descriptor table.
func TestFdTableSpill(t *testing.T) {
	var fds fdTable
	fds.set(3, fdState{path: 1})
	fds.set(fdTableSpan-1, fdState{path: 2})
	fds.set(fdTableSpan+7, fdState{path: 3}) // spills to the map
	fds.set(1<<40, fdState{path: 4})
	for fd, want := range map[int64]int32{3: 1, fdTableSpan - 1: 2, fdTableSpan + 7: 3, 1 << 40: 4} {
		st := fds.get(fd)
		if st == nil || st.path != want {
			t.Fatalf("get(%d) = %v, want path %d", fd, st, want)
		}
	}
	if st := fds.get(4); st != nil {
		t.Fatalf("get(4) on never-opened fd: %v", st)
	}
	// Offsets persist through the table (pointer semantics in both regimes).
	fds.get(3).offset = 42
	if got := fds.get(3).offset; got != 42 {
		t.Fatalf("dense offset lost: %d", got)
	}
	fds.get(fdTableSpan + 7).offset = 99
	if got := fds.get(fdTableSpan + 7).offset; got != 99 {
		t.Fatalf("map offset lost: %d", got)
	}
	if st := fds.closeFD(3); st == nil || st.path != 1 {
		t.Fatalf("closeFD(3) = %v", st)
	}
	if st := fds.get(3); st != nil {
		t.Fatalf("fd 3 still open after close: %v", st)
	}
	if st := fds.closeFD(1 << 40); st == nil || st.path != 4 {
		t.Fatalf("closeFD(big) = %v", st)
	}
	if st := fds.closeFD(1 << 40); st != nil {
		t.Fatal("double close returned state")
	}
}
