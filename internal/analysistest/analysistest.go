// Package analysistest is the worker-count and trace-format equivalence
// harness of the analysis engine: semfs.AnalyzeParallelCtx on a pool of
// one is the reference, and every other pool size and every on-disk format round trip must reproduce it
// exactly. Tests at every layer reuse these helpers so the parallel engine
// can never silently diverge — add a worker count or a new workload here
// and every equivalence test picks it up. (The fused conflict engine is
// checked against the per-model oracle in package core's own tests.)
package analysistest

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	semfs "repro"
	"repro/internal/recorder"
	"repro/internal/recorder/v1test"
	"repro/internal/storage"
)

// DefaultWorkerCounts covers the interesting pool shapes: GOMAXPROCS (0),
// the serial fallback (1), a small pool, an odd pool, and a pool far larger
// than any test trace's file count.
var DefaultWorkerCounts = []int{0, 1, 2, 5, 32}

// RequireEqual fails t unless the two analyses are identical, reporting the
// first field that differs (field-by-field beats one opaque DeepEqual on
// the whole struct: a census mismatch should not print conflict lists).
func RequireEqual(t testing.TB, label string, serial, parallel *semfs.Analysis) {
	t.Helper()
	check := func(field string, a, b any) {
		t.Helper()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: %s diverges from the serial reference\nserial: %+v\ngot:    %+v",
				label, field, a, b)
		}
	}
	check("Verdict", serial.Verdict, parallel.Verdict)
	check("SessionConflicts", serial.SessionConflicts, parallel.SessionConflicts)
	check("CommitConflicts", serial.CommitConflicts, parallel.CommitConflicts)
	check("Patterns", serial.Patterns, parallel.Patterns)
	check("Global", serial.Global, parallel.Global)
	check("Local", serial.Local, parallel.Local)
	check("Census", serial.Census, parallel.Census)
	check("MetaConflicts", serial.MetaConflicts, parallel.MetaConflicts)
	check("MetaSignature", serial.MetaSignature, parallel.MetaSignature)
	check("Report", serial.Report, parallel.Report)
	check("Unordered", serial.Unordered, parallel.Unordered)
	check("HBErr", fmt.Sprint(serial.HBErr), fmt.Sprint(parallel.HBErr))
}

// analyze runs semfs.AnalyzeParallelCtx, its scan included, on a pool of
// workers. workers == 1 gives the serial reference every other worker
// count and format must reproduce.
func analyze(t testing.TB, label string, tr *recorder.Trace, workers int) *semfs.Analysis {
	t.Helper()
	an, err := semfs.AnalyzeParallelCtx(context.Background(), tr, workers)
	if err != nil {
		t.Fatalf("%s: analyze: %v", labelWorkers(label, workers), err)
	}
	return an
}

// CheckTrace asserts that analyzing tr on a pool of w workers equals the
// serial reference for every worker count (DefaultWorkerCounts when none
// given).
func CheckTrace(t testing.TB, label string, tr *recorder.Trace, workerCounts ...int) {
	t.Helper()
	if len(workerCounts) == 0 {
		workerCounts = DefaultWorkerCounts
	}
	ref := analyze(t, label, tr, 1)
	for _, w := range workerCounts {
		RequireEqual(t, labelWorkers(label, w), ref, analyze(t, label, tr, w))
	}
}

// CheckFormats is the on-disk format equivalence gate: tr is saved in the
// columnar format, written as v1 by the test-support writer and converted
// from v1 to columnar, reloaded at every worker count, and each reload,
// analyzed at that worker count, must carry byte-identical records (the
// strict v1 load is the disk oracle) and produce a byte-identical analysis
// and rendered run report, conflict columns included (the serial analysis
// of the v1 reload is the analysis oracle). semfs.AnalyzeDirOn over each
// directory, at each worker count, must produce that same analysis and
// report without loading the trace.
func CheckFormats(t testing.TB, label string, tr *recorder.Trace, workerCounts ...int) {
	t.Helper()
	if len(workerCounts) == 0 {
		workerCounts = DefaultWorkerCounts
	}
	base := t.TempDir()
	dirs := []struct{ name, path string }{
		{"v1", filepath.Join(base, "v1")},
		{"columnar", filepath.Join(base, "col")},
		{"v1-to-columnar", filepath.Join(base, "conv-col")},
	}
	disk := storage.OS()
	if err := v1test.SaveDir(dirs[0].path, tr); err != nil {
		t.Fatalf("%s: saving v1: %v", label, err)
	}
	if err := semfs.SaveTraceOn(disk, dirs[1].path, tr); err != nil {
		t.Fatalf("%s: saving columnar: %v", label, err)
	}
	if _, err := semfs.ConvertTraceOn(disk, dirs[0].path, dirs[2].path, 0); err != nil {
		t.Fatalf("%s: converting v1->columnar: %v", label, err)
	}

	// The strict v1 reload is the record-level oracle: the v1 decoder
	// predates the columnar format, so every other load path must agree
	// with it byte for byte.
	oracle, err := semfs.LoadTraceOn(disk, dirs[0].path, 1)
	if err != nil {
		t.Fatalf("%s: loading v1 oracle: %v", label, err)
	}
	oracleAnalysis := analyze(t, label, oracle, 1)
	oracleReport := oracleAnalysis.Report.Render()

	for _, d := range dirs {
		for _, w := range workerCounts {
			got, err := semfs.LoadTraceOn(disk, d.path, w)
			if err != nil {
				t.Fatalf("%s/%s/workers=%d: load: %v", label, d.name, w, err)
			}
			if !reflect.DeepEqual(got.Meta, oracle.Meta) {
				t.Errorf("%s/%s/workers=%d: meta diverges:\noracle: %+v\ngot:    %+v",
					label, d.name, w, oracle.Meta, got.Meta)
			}
			if !reflect.DeepEqual(got, oracle) {
				t.Errorf("%s/%s/workers=%d: records diverge from the v1 oracle", label, d.name, w)
				continue
			}
			dlabel := fmt.Sprintf("%s/%s/workers=%d", label, d.name, w)
			an := analyze(t, dlabel, got, w)
			RequireEqual(t, dlabel, oracleAnalysis, an)
			if rep := an.Report.Render(); rep != oracleReport {
				t.Errorf("%s: rendered report diverges", dlabel)
			}

			// The directory analysis never loads the trace; it must still
			// reproduce the oracle.
			dan, err := semfs.AnalyzeDirOn(disk, d.path, w)
			if err != nil {
				t.Fatalf("%s: directory analysis: %v", dlabel, err)
			}
			RequireEqual(t, dlabel+"/dir", oracleAnalysis, dan)
			if rep := dan.Report.Render(); rep != oracleReport {
				t.Errorf("%s/dir: rendered report diverges", dlabel)
			}
		}
	}

}

// CheckApp runs one registry application configuration and asserts
// worker-count equivalence of its analysis (see CheckTrace).
func CheckApp(t testing.TB, name string, o semfs.RunOptions, workerCounts ...int) {
	t.Helper()
	res, err := semfs.Run(name, o)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := res.Err(); err != nil {
		t.Fatalf("%s: rank error: %v", name, err)
	}
	CheckTrace(t, name, res.Trace, workerCounts...)
}

// LostSends returns a copy of tr in which rank has lost its MPI_Send
// records, the shape of a lenient salvage that dropped them: a receive
// they matched has no send, so the happens-before build fails while every
// other analysis still runs.
func LostSends(tr *recorder.Trace, rank int) *recorder.Trace {
	tracers := make([]*recorder.RankTracer, len(tr.PerRank))
	for r := range tracers {
		tracers[r] = recorder.NewRankTracer(r)
		s := tr.Stream(r)
		for s.Next() {
			if rec := s.Record(); r != rank || rec.Func != recorder.FuncMPISend {
				tracers[r].Emit(*rec, rec.Args)
			}
		}
	}
	out, err := recorder.TraceOf(tr.Meta, tracers)
	if err != nil {
		panic(err) // a trace's own records always fit a rank log
	}
	return out
}

func labelWorkers(label string, w int) string {
	return fmt.Sprintf("%s/workers=%d", label, w)
}
