package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	semfs "repro"
	"repro/internal/storage"
)

const analyzeDigestGolden = "testdata/analyze_digest.golden"

// TestAnalyzeDigestGolden pins, for every registry app at 8 ranks (PPN 2,
// seed 1), the SHA-256 and exit code of the full -report output at -show 5
// and with every conflict line shown, at 1 and 2 workers. Each run starts
// from a cold extraction, so both worker counts exercise their own
// extraction merge. Rerun with UPDATE_ANALYZE_DIGEST=1 to regenerate the
// golden file and put the diff in review.
func TestAnalyzeDigestGolden(t *testing.T) {
	var lines []string
	for _, name := range semfs.Applications() {
		res, err := semfs.Run(name, semfs.RunOptions{Ranks: 8, PPN: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		tr := res.Trace
		for _, show := range []int{5, math.MaxInt} {
			for _, workers := range []int{1, 2} {
				var buf bytes.Buffer
				code := analyzeTrace(t, &buf, tr, true, show, true, workers)
				lines = append(lines, digestLine(name, show, workers, code, buf.Bytes()))
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"

	if os.Getenv("UPDATE_ANALYZE_DIGEST") == "1" {
		if err := os.MkdirAll(filepath.Dir(analyzeDigestGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(analyzeDigestGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d runs)", analyzeDigestGolden, len(lines))
		return
	}
	wantLines := goldenLines(t)
	if len(wantLines) != len(lines) {
		t.Fatalf("golden has %d runs, registry sweep produced %d", len(wantLines), len(lines))
	}
	for i, l := range lines {
		if l != wantLines[i] {
			t.Errorf("output moved:\n got  %s\n want %s", l, wantLines[i])
		}
	}
}

// digestLine is one golden line: a run's app, -show, workers, exit code,
// and the size and SHA-256 of its output.
func digestLine(name string, show, workers, code int, out []byte) string {
	showName := fmt.Sprint(show)
	if show == math.MaxInt {
		showName = "all"
	}
	return fmt.Sprintf("%s show=%s workers=%d exit=%d bytes=%d sha256=%x",
		name, showName, workers, code, len(out), sha256.Sum256(out))
}

func goldenLines(t *testing.T) []string {
	t.Helper()
	want, err := os.ReadFile(analyzeDigestGolden)
	if err != nil {
		t.Fatalf("reading %s (rerun with UPDATE_ANALYZE_DIGEST=1 to create it): %v", analyzeDigestGolden, err)
	}
	return strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
}

// TestAnalyzeDirDigestGolden: the default path, which analyzes a saved
// trace directory without loading it, reproduces every golden line from
// the registry traces saved columnar.
func TestAnalyzeDirDigestGolden(t *testing.T) {
	want := goldenLines(t)
	disk := storage.OS()
	base := t.TempDir()
	i := 0
	for _, name := range semfs.Applications() {
		res, err := semfs.Run(name, semfs.RunOptions{Ranks: 8, PPN: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(base, name)
		saveTrace(t, dir, res.Trace, "columnar")
		for _, show := range []int{5, math.MaxInt} {
			for _, workers := range []int{1, 2} {
				var buf bytes.Buffer
				code := analyzeDir(&buf, disk, dir, false, true, show, true, workers)
				if got := digestLine(name, show, workers, code, buf.Bytes()); i >= len(want) || got != want[i] {
					t.Errorf("directory:\n got  %s\n want %s", got, want[min(i, len(want)-1)])
				}
				i++
			}
		}
	}
	if i != len(want) {
		t.Fatalf("golden has %d runs, registry sweep produced %d", len(want), i)
	}
}
