package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	semfs "repro"
)

// TestPprofFile: -pprof FILE leaves stdout and the exit code as they are
// without it and writes the CPU profile to FILE and the allocation profile
// to FILE.allocs; a -pprof path that cannot be created is a usage error
// (exit 2) raised before the trace is read.
func TestPprofFile(t *testing.T) {
	res, err := semfs.Run("FLASH-nofbs", semfs.RunOptions{Ranks: 8, PPN: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	saveTrace(t, dir, res.Trace, "columnar")

	wantCode, wantOut, _ := semanalyze(t, "-trace", dir, "-report")
	prof := filepath.Join(t.TempDir(), "cpu.pprof")
	code, out, stderr := semanalyze(t, "-trace", dir, "-report", "-pprof", prof)
	if code != wantCode || !bytes.Equal(out, wantOut) {
		t.Errorf("-pprof run: exit %d, stdout equal %v; want exit %d and the same stdout (stderr %q)",
			code, bytes.Equal(out, wantOut), wantCode, stderr)
	}
	for _, p := range []string{prof, prof + ".allocs"} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("%s: want a non-empty profile (stat: %v)", filepath.Base(p), err)
		}
	}

	bad := filepath.Join(t.TempDir(), "missing", "cpu.pprof")
	code, out, stderr = semanalyze(t, "-trace", filepath.Join(t.TempDir(), "no-trace"), "-pprof", bad)
	if code != exitUsage || len(out) != 0 {
		t.Errorf("uncreatable -pprof: exit %d with %d bytes on stdout, want exit %d and none (stderr %q)",
			code, len(out), exitUsage, stderr)
	}
}
