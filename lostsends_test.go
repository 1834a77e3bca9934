package semfs_test

import (
	"context"
	"strings"
	"testing"

	semfs "repro"
	"repro/internal/analysistest"
	"repro/internal/recorder"
)

// TestAnalysisSurvivesLostSends: a trace whose rank lost its MPI_Send
// records (as a lenient salvage can) fails only the happens-before build.
// The analysis still succeeds with HBErr set and no Unordered view, at
// every worker count, and ValidateSynchronization reports the same error.
func TestAnalysisSurvivesLostSends(t *testing.T) {
	res, err := semfs.Run("MACSio-Silo", semfs.RunOptions{Ranks: 8, PPN: 2})
	if err != nil || res.Err() != nil {
		t.Fatal(err, res.Err())
	}
	tr := analysistest.LostSends(res.Trace, 0)
	an, err := semfs.AnalyzeParallelCtx(context.Background(), tr, 1)
	if err != nil {
		t.Fatalf("analysis failed: %v", err)
	}
	if an.HBErr == nil || !strings.Contains(an.HBErr.Error(), "no matching send") {
		t.Fatalf("HBErr = %v, want a receive with no matching send", an.HBErr)
	}
	if an.Unordered != nil {
		t.Fatalf("Unordered = %v, want nil without a happens-before graph", an.Unordered)
	}
	if an.Report == nil || an.Census.Total() == 0 {
		t.Fatal("the rest of the analysis is missing")
	}
	if _, err := semfs.ValidateSynchronization(tr); err == nil || err.Error() != an.HBErr.Error() {
		t.Fatalf("ValidateSynchronization error %v, want %v", err, an.HBErr)
	}
	analysistest.CheckTrace(t, "MACSio-Silo/lost-sends", tr)
}

// TestAnalysisReportsInvertedRank: a rank whose MPI records go backwards
// in time fails only the happens-before build, which names the rank's
// first inverted pair by MPI event index.
func TestAnalysisReportsInvertedRank(t *testing.T) {
	res, err := semfs.Run("MACSio-Silo", semfs.RunOptions{Ranks: 8, PPN: 2})
	if err != nil || res.Err() != nil {
		t.Fatal(err, res.Err())
	}
	rs := res.Trace.PerRank[3]
	var mpi []int // rank 3's MPI records
	for i := range rs {
		if rs[i].Layer == recorder.LayerMPI {
			mpi = append(mpi, i)
		}
	}
	if len(mpi) < 3 {
		t.Fatalf("rank 3 has %d MPI records, want at least 3", len(mpi))
	}
	// The third event now ends before the second one ends.
	b, c := &rs[mpi[1]], &rs[mpi[2]]
	c.TEnd = b.TEnd - 1
	c.TStart = min(c.TStart, c.TEnd)
	an, err := semfs.AnalyzeParallelCtx(context.Background(), res.Trace, 1)
	if err != nil {
		t.Fatalf("analysis failed: %v", err)
	}
	const want = "core: predecessor {3 1} of {3 2} not yet processed (timestamps violate happens-before)"
	if an.HBErr == nil || an.HBErr.Error() != want {
		t.Fatalf("HBErr = %v, want %q", an.HBErr, want)
	}
	if an.Unordered != nil || an.Report == nil {
		t.Fatalf("Unordered = %v, report %v: want no Unordered view and a report", an.Unordered, an.Report != nil)
	}
}
