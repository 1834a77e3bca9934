package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/payload"
	"repro/internal/pfs"
)

// TestOSDiskSegmentGoldenLayout pins the storage-seam compatibility oracle
// for the WAL: the same write sequence that generated the checked-in
// segment golden on the pre-seam os.* code must still produce a
// byte-identical rank-0000.wal through the osdisk backend. The golden was
// frozen BEFORE the seam refactor — a diff here is a real on-disk format
// change, not a regenerated expectation.
func TestOSDiskSegmentGoldenLayout(t *testing.T) {
	dir := t.TempDir()
	fs := pfs.New(pfs.Options{Semantics: pfs.Commit})
	c := fs.NewClient(0)
	l, err := Open(0, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var now uint64 = 10
	h, _, err := c.Open("/golden.dat", pfs.OCreat|pfs.ORdwr, now)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		now += 10
		data := make([]byte, 64+i)
		for j := range data {
			data[j] = byte(i*31 + j)
		}
		if _, err := l.Write(h, int64(i)*128, payload.Bytes(data), now); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, logName(0)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "pr9_segment.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("segment drifted from pre-seam layout: %d bytes vs %d", len(got), len(want))
	}
}
