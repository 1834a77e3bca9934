package core_test

import (
	"fmt"
	"testing"

	semfs "repro"
	"repro/internal/core"
)

// TestBuildHBMatchesOracleRegistry checks BuildHB against the
// per-predecessor oracle on every application configuration of the
// registry at 1, 3, 16 and 64 ranks: the same error, or the same
// cross-rank clock entry for every MPI event.
func TestBuildHBMatchesOracleRegistry(t *testing.T) {
	for _, name := range semfs.Applications() {
		for _, ranks := range []int{1, 3, 16, 64} {
			t.Run(fmt.Sprintf("%s/%d", name, ranks), func(t *testing.T) {
				t.Parallel()
				res, err := semfs.Run(name, semfs.RunOptions{Ranks: ranks, PPN: min(ranks, 8), Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				if err := res.Err(); err != nil {
					t.Fatalf("rank error: %v", err)
				}
				if d := core.DiffHBOracle(res.Trace); d != "" {
					t.Fatal(d)
				}
			})
		}
	}
}
