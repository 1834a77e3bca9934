package v1test_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/recorder"
	"repro/internal/recorder/colfmt"
	"repro/internal/recorder/v1test"
	"repro/internal/storage"
)

// TestWriteV1Dir writes the v1 trace the CLI format matrix analyzes: it
// loads the trace directory SEMFS_V1_SRC strictly and writes it as v1 at
// SEMFS_V1_OUT, then checks that every rank file is v1 and that the copy
// loads to the same trace. Skipped when SEMFS_V1_OUT is unset.
func TestWriteV1Dir(t *testing.T) {
	src, out := os.Getenv("SEMFS_V1_SRC"), os.Getenv("SEMFS_V1_OUT")
	if out == "" {
		t.Skip("SEMFS_V1_OUT not set (CI trace-format leg)")
	}
	tr, err := colfmt.LoadDirOn(storage.OS(), src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := v1test.SaveDir(out, tr); err != nil {
		t.Fatal(err)
	}
	for rank := range tr.PerRank {
		data, err := os.ReadFile(filepath.Join(out, recorder.RankFileName(rank)))
		if err != nil {
			t.Fatal(err)
		}
		if colfmt.Sniff(data) {
			t.Fatalf("rank %d: written columnar, want v1", rank)
		}
	}
	got, err := colfmt.LoadDirOn(storage.OS(), out, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatal("the v1 copy loads to a different trace")
	}
}
