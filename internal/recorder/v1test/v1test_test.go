package v1test_test

import (
	"os"
	"reflect"
	"testing"

	"repro/internal/recorder/colfmt"
	"repro/internal/recorder/v1test"
	"repro/internal/storage"
)

// TestWriteV1Dir writes the v1 trace the CLI format matrix checks semanalyze
// rejects: it loads the trace directory SEMFS_V1_SRC strictly and writes it
// as v1 at SEMFS_V1_OUT, then checks that the copy decodes, through the v1
// decoder, to the same records. Skipped when SEMFS_V1_OUT is unset.
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
	got, err := v1test.LoadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != tr.Meta || len(got.PerRank) != len(tr.PerRank) {
		t.Fatal("the v1 copy loads to a different trace")
	}
	for rank := range tr.PerRank {
		if !reflect.DeepEqual(got.Records(rank), tr.Records(rank)) {
			t.Fatalf("rank %d: the v1 copy holds different records", rank)
		}
	}
}
