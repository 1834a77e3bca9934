package semfs

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/payload"
	"repro/internal/recorder"
	"repro/internal/recorder/colfmt"
	"repro/internal/report"
	"repro/internal/storage"
)

// analyzeSerial runs the analysis on a pool of one.
func analyzeSerial(t *testing.T, tr *Trace) *Analysis {
	t.Helper()
	an, err := AnalyzeParallelCtx(context.Background(), tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	return an
}

func TestApplicationsList(t *testing.T) {
	names := Applications()
	if len(names) != 25 {
		t.Fatalf("Applications() has %d entries, want 25", len(names))
	}
	desc, err := Describe("FLASH-fbs")
	if err != nil || desc == "" {
		t.Fatalf("Describe: %q, %v", desc, err)
	}
	if _, err := Describe("nope"); err == nil {
		t.Fatal("Describe of unknown app should fail")
	}
}

func TestRunAndAnalyzeEndToEnd(t *testing.T) {
	res, err := Run("NWChem", RunOptions{Ranks: 8, PPN: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	an := analyzeSerial(t, res.Trace)
	if an.Verdict.Weakest != Session {
		t.Fatalf("NWChem weakest = %v, want session", an.Verdict.Weakest)
	}
	if !an.Verdict.Session.WAWSame || !an.Verdict.Session.RAWSame {
		t.Fatalf("NWChem session signature = %+v", an.Verdict.Session)
	}
	if len(an.Patterns) == 0 || an.Census.Total() == 0 {
		t.Fatal("analysis incomplete")
	}
	if _, ok := an.SessionConflicts["/md.trj"]; !ok {
		t.Fatalf("trajectory conflicts missing: %v", an.SessionConflicts)
	}
}

func TestRunUnknownApp(t *testing.T) {
	if _, err := Run("NoSuchApp", RunOptions{}); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestTraceRoundTripThroughDisk(t *testing.T) {
	res, err := Run("GTC", RunOptions{Ranks: 4, PPN: 2})
	if err != nil || res.Err() != nil {
		t.Fatal(err, res.Err())
	}
	dir := filepath.Join(t.TempDir(), "trace")
	if err := SaveTraceOn(storage.OS(), dir, res.Trace); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTraceOn(storage.OS(), dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRecords() != res.Trace.NumRecords() {
		t.Fatalf("records %d != %d after round trip", got.NumRecords(), res.Trace.NumRecords())
	}
	// The loaded trace analyzes identically.
	a1, a2 := analyzeSerial(t, res.Trace), analyzeSerial(t, got)
	if a1.Verdict != a2.Verdict {
		t.Fatalf("verdicts differ after disk round trip: %+v vs %+v", a1.Verdict, a2.Verdict)
	}
}

func TestValidateSynchronization(t *testing.T) {
	res, err := Run("FLASH-nofbs", RunOptions{Ranks: 8, PPN: 2})
	if err != nil || res.Err() != nil {
		t.Fatal(err, res.Err())
	}
	unordered, err := ValidateSynchronization(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(unordered) != 0 {
		t.Fatalf("FLASH conflicts not synchronized: %v", unordered[0])
	}
}

// TestValidateSynchronizationDeterministic: unsynchronized pairs in two
// files come back in path order, identically on every call, and equal the
// analysis's own Unordered view.
func TestValidateSynchronizationDeterministic(t *testing.T) {
	res, err := RunCustom("two-file-race", RunOptions{Ranks: 4}, func(ctx *Ctx) error {
		for _, path := range []string{"/b", "/a"} {
			fd, err := ctx.OS.Open(path, recorder.OCreat|recorder.OWronly, 0o644)
			if err != nil {
				return err
			}
			if _, err := ctx.OS.Pwrite(fd, payload.Bytes(make([]byte, 64)), 0); err != nil {
				return err
			}
			if err := ctx.OS.Close(fd); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil || res.Err() != nil {
		t.Fatal(err, res.Err())
	}
	want, err := ValidateSynchronization(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 2 || want[0].Path != "/a" || want[len(want)-1].Path != "/b" {
		t.Fatalf("want unordered pairs on /a then /b, got %v", want)
	}
	for _, w := range []int{1, 4} {
		an, err := AnalyzeParallelCtx(context.Background(), res.Trace, w)
		if err != nil {
			t.Fatal(err)
		}
		if an.HBErr != nil || !reflect.DeepEqual(an.Unordered, want) {
			t.Fatalf("workers=%d: Analysis.Unordered = %v (HBErr %v), ValidateSynchronization = %v", w, an.Unordered, an.HBErr, want)
		}
	}
	for i := 0; i < 20; i++ {
		got, err := ValidateSynchronization(res.Trace)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: unordered pairs differ:\n got %v\nwant %v", i, got, want)
		}
	}
}

func TestReportFacade(t *testing.T) {
	res, err := Run("GAMESS", RunOptions{Ranks: 8, PPN: 2})
	if err != nil || res.Err() != nil {
		t.Fatal(err, res.Err())
	}
	rep := analyzeSerial(t, res.Trace).Report
	if rep.Config != "GAMESS" || rep.BytesWritten == 0 {
		t.Fatalf("report = %+v", rep)
	}
	if out := rep.Render(); len(out) == 0 {
		t.Fatal("empty render")
	}
}

// TestRunReportConflictColumns: the report's per-file conflict columns are
// read off the analysis's one conflict sweep.
func TestRunReportConflictColumns(t *testing.T) {
	res, err := Run("NWChem", RunOptions{Ranks: 8, PPN: 2})
	if err != nil || res.Err() != nil {
		t.Fatal(err, res.Err())
	}
	an := analyzeSerial(t, res.Trace)
	var trj *report.FileReport
	for i := range an.Report.Files {
		f := &an.Report.Files[i]
		if f.SessionConflicts != len(an.SessionConflicts[f.Path]) || f.CommitConflicts != len(an.CommitConflicts[f.Path]) {
			t.Fatalf("%s: report columns %d/%d, analysis %d/%d", f.Path, f.SessionConflicts, f.CommitConflicts,
				len(an.SessionConflicts[f.Path]), len(an.CommitConflicts[f.Path]))
		}
		if f.Path == "/md.trj" {
			trj = f
		}
	}
	if trj == nil {
		t.Fatal("trajectory file missing from report")
	}
	if trj.SessionConflicts == 0 || trj.CommitConflicts == 0 {
		t.Fatalf("trajectory conflicts not counted: %+v", trj)
	}
	if trj.Ranks != 1 {
		t.Fatalf("trajectory written by %d ranks", trj.Ranks)
	}
}

func TestAnalyzeMetadataDependencies(t *testing.T) {
	res, err := Run("MACSio-Silo", RunOptions{Ranks: 8, PPN: 2})
	if err != nil || res.Err() != nil {
		t.Fatal(err, res.Err())
	}
	an := analyzeSerial(t, res.Trace)
	if !an.MetaSignature.CreateUse || len(an.MetaConflicts) == 0 {
		t.Fatalf("MACSio metadata dependencies missing: %+v", an.MetaSignature)
	}
}

func TestRunCustomBody(t *testing.T) {
	res, err := RunCustom("demo", RunOptions{Ranks: 2}, func(ctx *Ctx) error {
		fd, err := ctx.OS.Open("/x", recorder.OCreat|recorder.OWronly, 0o644)
		if err != nil {
			return err
		}
		if _, err := ctx.OS.Pwrite(fd, payload.Bytes(make([]byte, 16)), int64(ctx.Rank)*16); err != nil {
			return err
		}
		return ctx.OS.Close(fd)
	})
	if err != nil || res.Err() != nil {
		t.Fatal(err, res.Err())
	}
	an := analyzeSerial(t, res.Trace)
	if an.Verdict.Session.Any() {
		t.Fatalf("disjoint writes produced conflicts: %+v", an.Verdict.Session)
	}
}

func TestVerifyOnSessionPFSDetectsFlash(t *testing.T) {
	res, err := Run("FLASH-nofbs", RunOptions{Ranks: 8, PPN: 2, Semantics: Session, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err() == nil {
		t.Fatal("FLASH should corrupt on a session-semantics PFS")
	}
	res2, err := Run("FLASH-nofbs", RunOptions{Ranks: 8, PPN: 2, Semantics: Commit, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Err() != nil {
		t.Fatalf("FLASH should run clean on commit semantics: %v", res2.Err())
	}
}

func TestAnalyzeParallelCtxCancelledAndLenientLoad(t *testing.T) {
	res, err := Run("GTC", RunOptions{Ranks: 4, PPN: 2})
	if err != nil || res.Err() != nil {
		t.Fatal(err, res.Err())
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if an, err := AnalyzeParallelCtx(ctx, res.Trace, 4); !errors.Is(err, context.Canceled) || an != nil {
		t.Fatalf("cancelled AnalyzeParallelCtx: %v, %v", an, err)
	}
	an, err := AnalyzeParallelCtx(context.Background(), res.Trace, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := analyzeSerial(t, res.Trace); an.Verdict != want.Verdict {
		t.Fatalf("ctx analysis verdict %+v != serial %+v", an.Verdict, want.Verdict)
	}

	// A trace with one truncated rank stream still analyzes in degraded
	// mode, with the loss accounted for.
	dir := filepath.Join(t.TempDir(), "trace")
	if err := SaveTraceOn(storage.OS(), dir, res.Trace); err != nil {
		t.Fatal(err)
	}
	// Columnar salvage is block-granular, so re-encode rank 3 with small
	// blocks before tearing its tail — a half cut then leaves whole blocks
	// to recover instead of killing the rank's only block.
	streamPath := filepath.Join(dir, "rank_00003.rec")
	var enc bytes.Buffer
	if err := colfmt.EncodeStream(&enc, 3, res.Trace.Records(3), colfmt.EncodeOptions{BlockRecords: 8}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(streamPath, enc.Bytes()[:enc.Len()/2], 0o644); err != nil {
		t.Fatal(err)
	}
	da, sal, err := AnalyzeDirLenientOn(storage.OS(), dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sal.Degraded() || sal.Truncated != 1 || sal.Salvaged == 0 {
		t.Fatalf("salvage report: %v", sal)
	}
	if n := da.Report.Records; n >= res.Trace.NumRecords() || n != sal.Records {
		t.Fatalf("degraded analysis folded %d records, salvage %d, original %d", n, sal.Records, res.Trace.NumRecords())
	}
	if da.Census.Total() == 0 {
		t.Fatal("degraded trace did not analyze")
	}
}
