package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	semfs "repro"
	"repro/internal/analysistest"
	"repro/internal/core"
	"repro/internal/obs"
)

// analyzeTrace runs the analysis over an in-memory trace and renders it to
// w as the command renders a directory's.
func analyzeTrace(t *testing.T, w io.Writer, tr *semfs.Trace, validate bool, maxShow int, full bool, workers int) int {
	t.Helper()
	an, err := semfs.AnalyzeParallelCtx(context.Background(), tr, workers)
	if err != nil {
		t.Fatal(err)
	}
	return render(w, an, validate, maxShow, full)
}

func runApp(t *testing.T, name string) *semfs.Trace {
	t.Helper()
	res, err := semfs.Run(name, semfs.RunOptions{Ranks: 8, PPN: 2})
	if err != nil || res.Err() != nil {
		t.Fatal(err, res.Err())
	}
	return res.Trace
}

// TestAnalyzeRunsOneSweepAndOneExtraction: a -report run reads every view,
// the report's conflict columns included, off one extraction and one fused
// conflict sweep.
func TestAnalyzeRunsOneSweepAndOneExtraction(t *testing.T) {
	tr := runApp(t, "NWChem")
	reg := obs.Default()
	was := reg.Enabled()
	reg.SetEnabled(true)
	t.Cleanup(func() { reg.SetEnabled(was) })
	core.InvalidateExtraction(tr)
	t.Cleanup(func() { core.InvalidateExtraction(tr) })
	sweeps := reg.Histogram("core.pass.fused-conflicts.wall_ns")
	misses := reg.Counter("core.extract.cache.misses")
	sweeps0, misses0 := sweeps.Count(), misses.Value()

	var buf bytes.Buffer
	if code := analyzeTrace(t, &buf, tr, true, 5, true, 1); code != exitClean {
		t.Fatalf("exit %d, want %d:\n%s", code, exitClean, buf.String())
	}
	if n := sweeps.Count() - sweeps0; n != 1 {
		t.Errorf("core.pass.fused-conflicts.wall_ns recorded %d samples, want 1", n)
	}
	if n := misses.Value() - misses0; n != 1 {
		t.Errorf("core.extract.cache.misses rose by %d, want 1", n)
	}

	out := buf.String()
	var row []string
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 8 && f[0] == "/md.trj" {
			row = f
		}
	}
	if row == nil {
		t.Fatalf("no /md.trj row in the per-file summary:\n%s", out)
	}
	if row[6] == "0" || row[7] == "0" {
		t.Errorf("/md.trj conflict columns are zero: %v", row)
	}
	if !strings.Contains(out, "Happens-before validation: all conflicting pairs are synchronized") {
		t.Errorf("validation line missing:\n%s", out)
	}
}

// TestAnalyzeLostSends: a trace that lost a rank's MPI sends fails
// happens-before validation, and analyzes anyway with -validate=false.
func TestAnalyzeLostSends(t *testing.T) {
	tr := analysistest.LostSends(runApp(t, "MACSio-Silo"), 0)
	var buf bytes.Buffer
	if code := analyzeTrace(t, &buf, tr, true, 5, true, 1); code != exitError {
		t.Errorf("-validate: exit %d, want %d", code, exitError)
	}
	buf.Reset()
	if code := analyzeTrace(t, &buf, tr, false, 5, true, 1); code != exitClean && code != exitConflicts {
		t.Errorf("-validate=false: exit %d, want %d or %d", code, exitClean, exitConflicts)
	}
	if !strings.Contains(buf.String(), "Verdict:") {
		t.Errorf("-validate=false printed no verdict:\n%s", buf.String())
	}
}

// failAfter accepts n bytes and then fails every write, like a full disk.
type failAfter struct{ n int }

var errDiskFull = errors.New("no space left on device")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) <= f.n {
		f.n -= len(p)
		return len(p), nil
	}
	n := f.n
	f.n = 0
	return n, errDiskFull
}

// TestAnalyzeWriteFailureExits1: a report that cannot be written in full
// is an error (exit 1), whether the first write, a write in the middle or
// only the final flush fails, on a clean trace and on one with races.
func TestAnalyzeWriteFailureExits1(t *testing.T) {
	for _, tc := range []struct {
		app      string
		validate bool
		clean    int // exit code when the output is written in full
	}{
		{"NWChem", true, exitClean},
		{"NWChem", false, exitConflicts},
	} {
		tr := runApp(t, tc.app)
		var buf bytes.Buffer
		if code := analyzeTrace(t, &buf, tr, tc.validate, 5, true, 1); code != tc.clean {
			t.Fatalf("%s validate=%v: exit %d on a working writer, want %d", tc.app, tc.validate, code, tc.clean)
		}
		size := buf.Len()
		for _, n := range []int{0, size / 2, size - 1} {
			if code := analyzeTrace(t, &failAfter{n: n}, tr, tc.validate, 5, true, 1); code != exitError {
				t.Errorf("%s validate=%v: writer failing after %d of %d bytes: exit %d, want %d",
					tc.app, tc.validate, n, size, code, exitError)
			}
		}
		if code := analyzeTrace(t, &failAfter{n: size}, tr, tc.validate, 5, true, 1); code != tc.clean {
			t.Errorf("%s validate=%v: writer with room for exactly %d bytes: exit %d, want %d", tc.app, tc.validate, size, code, tc.clean)
		}
	}
}
