package semfs_test

import (
	"context"
	"strings"
	"testing"

	semfs "repro"
	"repro/internal/analysistest"
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
