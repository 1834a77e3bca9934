package core_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	semfs "repro"
	"repro/internal/analysistest"
	"repro/internal/core"
	"repro/internal/pfs"
)

var allModels = []pfs.Semantics{pfs.Strong, pfs.Commit, pfs.Session, pfs.Eventual}

// TestFusedMatchesPerModelRegistry is the acceptance gate of the fused
// conflict engine: for every application configuration of the registry,
// under all four consistency models and at every worker count, the
// single-sweep multi-model pass must produce byte-identical per-file
// conflict lists and signatures to the per-model oracle, and the verdict
// must match the one the oracle's signatures imply.
func TestFusedMatchesPerModelRegistry(t *testing.T) {
	for _, name := range semfs.Applications() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := semfs.Run(name, semfs.RunOptions{Ranks: 16, PPN: 2, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Err(); err != nil {
				t.Fatalf("rank error: %v", err)
			}
			checkFused(t, res.Trace)
		})
	}
}

func checkFused(t *testing.T, tr *semfs.Trace) {
	t.Helper()
	ctx := context.Background()
	wantByFile := make([]map[string][]core.Conflict, len(allModels))
	wantSig := make([]core.ConflictSignature, len(allModels))
	for i, m := range allModels {
		wantByFile[i], wantSig[i] = core.AnalyzeConflictsOracle(tr, m)
	}
	for _, w := range analysistest.DefaultWorkerCounts {
		how := fmt.Sprintf("workers=%d", w)
		fas, err := core.ExtractSharedCtx(ctx, tr, w)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := core.ConflictsAllForFilesCtx(ctx, fas, allModels, w)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range allModels {
			if ms[i].Model != m {
				t.Errorf("%s: model order: got %v want %v", how, ms[i].Model, m)
			}
			if ms[i].Signature != wantSig[i] {
				t.Errorf("%s: signature under %v diverges from per-model oracle\noracle: %+v\nfused:  %+v",
					how, m, wantSig[i], ms[i].Signature)
			}
			if !reflect.DeepEqual(ms[i].ByFile, wantByFile[i]) {
				t.Errorf("%s: conflicts under %v diverge from per-model oracle", how, m)
			}
		}
		want := core.VerdictFrom(wantSig[2], wantSig[1]) // session, commit
		an, err := semfs.AnalyzeParallelCtx(ctx, tr, w)
		if err != nil {
			t.Fatal(err)
		}
		if an.Verdict != want {
			t.Errorf("%s: fused verdict %+v, per-model oracle %+v", how, an.Verdict, want)
		}
	}
}
