package core

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/pfs"
	"repro/internal/recorder"
)

var allModels = []pfs.Semantics{pfs.Strong, pfs.Commit, pfs.Session, pfs.Eventual}

// TestFusedMatchesPerModelRandom: the single-sweep multi-model pass must be
// byte-identical to one per-model oracle sweep per model, on randomized
// histories.
func TestFusedMatchesPerModelRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 300; trial++ {
		fa := randomFA(rng)
		lists := detectConflictsMulti(fa, allModels)
		for i, m := range allModels {
			want := detectConflictsOracle(fa, m)
			if !reflect.DeepEqual(lists[i], want) {
				t.Fatalf("trial %d: fused list under %v diverges\nfused: %v\nwant:  %v",
					trial, m, lists[i], want)
			}
		}
	}
}

// TestConflictCapPreservesSignature: under a tiny MaxConflictsPerFile the
// materialized list truncates but the Table 4 signature stays exact (the
// appender always admits the first conflict of an unseen class), and the
// fused pass still matches the per-model oracle exactly.
func TestConflictCapPreservesSignature(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	orig := MaxConflictsPerFile
	defer func() { MaxConflictsPerFile = orig }()
	for trial := 0; trial < 100; trial++ {
		fa := randomFA(rng)

		MaxConflictsPerFile = orig
		full := conflictsUnder(fa, pfs.Eventual)
		if len(full) < 8 {
			continue // need a storm for the cap to bind
		}
		wantSig := signatureOf(full)

		MaxConflictsPerFile = 3
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
		lists := detectConflictsMulti(fa, allModels)
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
	app.add(waw) // past cap, class already seen -> suppressed
	if len(app.out) != 2 || app.suppressed != 1 {
		t.Fatalf("got %d kept, %d suppressed; want 2, 1", len(app.out), app.suppressed)
	}
	app.add(raw) // past cap but unseen class -> kept
	if len(app.out) != 3 || app.suppressed != 1 {
		t.Fatalf("unseen class past cap: got %d kept, %d suppressed; want 3, 1", len(app.out), app.suppressed)
	}
	if got := signatureOf(app.out); !got.WAWDiff || !got.RAWSame {
		t.Fatalf("signature lost a class: %+v", got)
	}
}

// TestExtractSharedCaches: same trace pointer -> same extraction slice;
// invalidation forces a re-extract; distinct traces get distinct entries;
// the cached result matches an uncached serial extraction.
func TestExtractSharedCaches(t *testing.T) {
	tr := synthTrace(3, 4)
	a := extractShared(t, tr)
	b := extractShared(t, tr)
	if len(a) == 0 {
		t.Fatal("empty extraction from a non-empty trace")
	}
	if &a[0] != &b[0] {
		t.Fatal("second ExtractSharedCtx did not return the cached slice")
	}
	if want := extractAll(tr); !reflect.DeepEqual(a, want) {
		t.Fatal("cached extraction diverges from serial extraction")
	}
	InvalidateExtraction(tr)
	c := extractShared(t, tr)
	if &c[0] == &a[0] {
		t.Fatal("InvalidateExtraction did not evict: got the old slice back")
	}
	tr2 := synthTrace(2, 2)
	d := extractShared(t, tr2)
	if len(d) == len(c) && &d[0] == &c[0] {
		t.Fatal("distinct traces share one cache entry")
	}
	InvalidateExtraction(tr)
	InvalidateExtraction(tr2)
}

func extractShared(t *testing.T, tr *recorder.Trace) []*FileAccesses {
	t.Helper()
	fas, err := ExtractSharedCtx(context.Background(), tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	return fas
}

// TestExtractSharedEviction fills the cache past its cap and checks old
// entries are evicted while fresh ones still hit.
func TestExtractSharedEviction(t *testing.T) {
	first := synthTrace(1, 1)
	extractShared(t, first)
	var trs []*recorder.Trace
	for i := 0; i < extractCacheCap; i++ {
		tr := synthTrace(1, 1)
		trs = append(trs, tr)
		extractShared(t, tr)
	}
	extractions.mu.Lock()
	_, firstStill := extractions.byTr[first]
	_, lastStill := extractions.byTr[trs[len(trs)-1]]
	size := len(extractions.byTr)
	extractions.mu.Unlock()
	if firstStill {
		t.Fatal("oldest entry survived past the FIFO cap")
	}
	if !lastStill {
		t.Fatal("newest entry missing from cache")
	}
	if size > extractCacheCap {
		t.Fatalf("cache holds %d entries, cap is %d", size, extractCacheCap)
	}
	for _, tr := range trs {
		InvalidateExtraction(tr)
	}
}

// TestInvalidateExtractionReleasesTrace: once a trace's extraction is
// invalidated, the cache must hold no reference to the trace — not even in
// the spare capacity of its FIFO order slice — so the trace is collectable.
func TestInvalidateExtractionReleasesTrace(t *testing.T) {
	collected := make(chan struct{})
	cacheThenInvalidate(t, collected)
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("trace still reachable after InvalidateExtraction")
}

// cacheThenInvalidate keeps the trace pointer off the test's own frame.
func cacheThenInvalidate(t *testing.T, collected chan struct{}) {
	tr := synthTrace(2, 2)
	runtime.SetFinalizer(tr, func(*recorder.Trace) { close(collected) })
	extractShared(t, tr)
	InvalidateExtraction(tr)
}

// TestFdTableSpill pins the dense/map split of the descriptor table.
func TestFdTableSpill(t *testing.T) {
	var fds fdTable
	fds.set(3, fdState{path: "/a"})
	fds.set(fdTableSpan-1, fdState{path: "/b"})
	fds.set(fdTableSpan+7, fdState{path: "/c"}) // spills to the map
	fds.set(1<<40, fdState{path: "/d"})
	for fd, want := range map[int64]string{3: "/a", fdTableSpan - 1: "/b", fdTableSpan + 7: "/c", 1 << 40: "/d"} {
		st := fds.get(fd)
		if st == nil || st.path != want {
			t.Fatalf("get(%d) = %v, want path %q", fd, st, want)
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
	if st := fds.closeFD(3); st == nil || st.path != "/a" {
		t.Fatalf("closeFD(3) = %v", st)
	}
	if st := fds.get(3); st != nil {
		t.Fatalf("fd 3 still open after close: %v", st)
	}
	if st := fds.closeFD(1 << 40); st == nil || st.path != "/d" {
		t.Fatalf("closeFD(big) = %v", st)
	}
	if st := fds.closeFD(1 << 40); st != nil {
		t.Fatal("double close returned state")
	}
}
