package ckpt

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storage"
)

// TestOSDiskLayoutGolden pins the storage-seam compatibility oracle: the
// same manifest + append workload that generated the checked-in goldens on
// the pre-seam os.* code must still produce byte-identical ckpt.json and
// journal.wal through the osdisk backend. The goldens were frozen BEFORE
// the seam refactor — any diff here is a real layout change, not a test
// regenerated to agree with the bug.
func TestOSDiskLayoutGolden(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenOn(storage.OS(), dir, Manifest{
		Kind: "pr9.golden", Ranks: 4, PPN: 2, Seed: 7,
		Semantics: "commit", Params: "p=1",
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		blob := append([]byte(fmt.Sprintf("result-%02d:", i)), make([]byte, i*3)...)
		if err := s.Append(fmt.Sprintf("unit-%02d", i), blob); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ file, golden string }{
		{manifestName, "pr9_manifest.golden"},
		{journalName, "pr9_journal.golden"},
	} {
		got, err := os.ReadFile(filepath.Join(dir, tc.file))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s drifted from pre-seam layout %s: %d bytes vs %d\n got: %q\nwant: %q",
				tc.file, tc.golden, len(got), len(want), got, want)
		}
	}
}
