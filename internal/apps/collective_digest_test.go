package apps

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/recorder"
)

const collectiveDigestGolden = "testdata/collective_digest.golden"

// TestCollectiveDigestGolden pins, for every registry app at 8 and 32
// ranks, a SHA-256 over every rank's trace records and one over the final
// file-system content. The simulated MPI hands collective results to every
// rank as shared read-only slices, so a rank that mutated one would change
// what another rank writes: the content digest (and the records' byte
// counts and timestamps) would move. Rerun with UPDATE_COLLECTIVE_DIGEST=1
// to regenerate the golden file and put the diff in review.
func TestCollectiveDigestGolden(t *testing.T) {
	var lines []string
	for _, ranks := range []int{8, 32} {
		for _, name := range Names() {
			res := execute(t, name, Options{Ranks: ranks, PPN: testPPN, Seed: 1})
			lines = append(lines, fmt.Sprintf("%s ranks=%d records=%d trace=%x content=%x",
				name, ranks, res.Trace.NumRecords(), traceDigest(res.Trace), contentDigest(res.FS.ContentDump())))
		}
	}
	got := strings.Join(lines, "\n") + "\n"

	if os.Getenv("UPDATE_COLLECTIVE_DIGEST") == "1" {
		if err := os.MkdirAll(filepath.Dir(collectiveDigestGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(collectiveDigestGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d runs)", collectiveDigestGolden, len(lines))
		return
	}
	want, err := os.ReadFile(collectiveDigestGolden)
	if err != nil {
		t.Fatalf("reading %s (rerun with UPDATE_COLLECTIVE_DIGEST=1 to create it): %v", collectiveDigestGolden, err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("golden has %d runs, registry sweep produced %d", len(wantLines), len(lines))
	}
	for i, l := range lines {
		if l != wantLines[i] {
			t.Errorf("digest moved:\n got  %s\n want %s", l, wantLines[i])
		}
	}
}

// traceDigest hashes every record field, rank by rank, in a fixed layout.
func traceDigest(tr *recorder.Trace) []byte {
	h := sha256.New()
	for rank := range tr.PerRank {
		rs := tr.Records(rank)
		putInts(h, int64(rank), int64(len(rs)))
		for _, r := range rs {
			putInts(h, int64(r.Rank), int64(r.Layer), int64(r.Func), int64(r.TStart), int64(r.TEnd))
			putBytes(h, []byte(r.Path))
			putBytes(h, []byte(r.Path2))
			putInts(h, int64(len(r.Args)))
			putInts(h, r.Args...)
		}
	}
	return h.Sum(nil)
}

// contentDigest hashes a ContentDump in path order.
func contentDigest(dump map[string][]byte) []byte {
	paths := make([]string, 0, len(dump))
	for p := range dump {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		putBytes(h, []byte(p))
		putBytes(h, dump[p])
	}
	return h.Sum(nil)
}

func putInts(h hash.Hash, vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

// putBytes writes a length-prefixed byte string.
func putBytes(h hash.Hash, b []byte) {
	putInts(h, int64(len(b)))
	h.Write(b)
}
