package report

import (
	"context"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/recorder"
)

// extract is the serial extraction the report builders read.
func extract(t *testing.T, tr *recorder.Trace) []*core.FileAccesses {
	t.Helper()
	fas, err := core.ExtractSharedCtx(context.Background(), tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	return fas
}

// TestRunReport covers the digest; the per-file conflict columns are filled
// by semfs.AnalyzeParallelCtx and tested there (TestRunReportConflictColumns).
func TestRunReport(t *testing.T) {
	cfg, ok := apps.Lookup("NWChem")
	if !ok {
		t.Fatal("NWChem missing")
	}
	res, err := apps.Execute(cfg, apps.Options{Ranks: 8, PPN: 2, Semantics: pfs.Strong})
	if err != nil || res.Err() != nil {
		t.Fatal(err, res.Err())
	}
	rep := BuildRunReportFrom(res.Trace, extract(t, res.Trace))
	if rep.Config != "NWChem" || rep.Ranks != 8 {
		t.Fatalf("header wrong: %+v", rep)
	}
	if rep.BytesWritten == 0 || rep.Records == 0 {
		t.Fatal("empty report")
	}
	var trj *FileReport
	for i := range rep.Files {
		if rep.Files[i].Path == "/md.trj" {
			trj = &rep.Files[i]
		}
	}
	if trj == nil {
		t.Fatal("trajectory file missing from report")
	}
	if trj.SessionConflicts != 0 || trj.CommitConflicts != 0 {
		t.Fatalf("the digest alone counted conflicts: %+v", trj)
	}
	if trj.Ranks != 1 {
		t.Fatalf("trajectory written by %d ranks", trj.Ranks)
	}
	out := rep.Render()
	for _, want := range []string{"Run report: NWChem", "Function counters", "histogram", "md.trj", "[POSIX]", "[MPI]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestBucketsAndHuman(t *testing.T) {
	if obs.BucketOf(1) != 0 || obs.BucketOf(2) != 1 || obs.BucketOf(4096) != 12 || obs.BucketOf(4097) != 12 {
		t.Fatal("BucketOf wrong")
	}
	// Zero-length accesses must not land in the [1B, 2B) bucket.
	if obs.BucketOf(0) != -1 {
		t.Fatalf("BucketOf(0) = %d, want -1", obs.BucketOf(0))
	}
	if human(512) != "512B" || human(2048) != "2.0KiB" || human(3<<20) != "3.0MiB" || human(2<<30) != "2.0GiB" {
		t.Fatalf("human wrong: %s %s", human(2048), human(3<<20))
	}
	if trunc("abc", 5) != "abc" || trunc("abcdefghij", 6) != "...hij" {
		t.Fatalf("trunc wrong: %q", trunc("abcdefghij", 6))
	}
}

func TestHistogramRendersSortedWithZeroBucket(t *testing.T) {
	r := &RunReport{
		Config:        "synthetic",
		SizeHistogram: obs.NewHistogram(),
	}
	// Observe out of order, including zero-length accesses.
	for _, n := range []int64{1 << 20, 0, 17, 0, 4096, 1} {
		r.SizeHistogram.Observe(n)
	}
	out := r.Render()
	zi := strings.Index(out, "zero-length")
	bi := strings.Index(out, "[     1B,      2B)")
	ki := strings.Index(out, "[ 4.0KiB,  8.0KiB)")
	mi := strings.Index(out, "[ 1.0MiB,  2.0MiB)")
	if zi < 0 || bi < 0 || ki < 0 || mi < 0 {
		t.Fatalf("histogram lines missing:\n%s", out)
	}
	if !(zi < bi && bi < ki && ki < mi) {
		t.Fatalf("histogram lines out of order:\n%s", out)
	}
	if !strings.Contains(out, "zero-length  2\n") {
		t.Fatalf("zero bucket count wrong:\n%s", out)
	}
}

// TestDistinctRanks: the per-file rank column counts distinct ranks, one
// per rank run in extraction order and through a sort otherwise.
func TestDistinctRanks(t *testing.T) {
	ivs := func(ranks ...int32) []core.Interval {
		out := make([]core.Interval, len(ranks))
		for i, r := range ranks {
			out[i].Rank = r
		}
		return out
	}
	for _, c := range []struct {
		ranks []int32
		want  int
	}{
		{nil, 0},
		{[]int32{3}, 1},
		{[]int32{0, 0, 1, 1, 1, 7}, 3},
		{[]int32{2, 0, 2, 1, 0}, 3},
		{[]int32{0, 1, 0}, 2},
	} {
		if got := distinctRanks(ivs(c.ranks...)); got != c.want {
			t.Errorf("distinctRanks(%v) = %d, want %d", c.ranks, got, c.want)
		}
	}
}
