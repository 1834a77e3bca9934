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
	"repro/internal/core"
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
				core.InvalidateExtraction(tr)
				var buf bytes.Buffer
				code := analyze(&buf, tr, true, show, true, workers)
				showName := fmt.Sprint(show)
				if show == math.MaxInt {
					showName = "all"
				}
				lines = append(lines, fmt.Sprintf("%s show=%s workers=%d exit=%d bytes=%d sha256=%x",
					name, showName, workers, code, buf.Len(), sha256.Sum256(buf.Bytes())))
			}
		}
		core.InvalidateExtraction(tr)
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
	want, err := os.ReadFile(analyzeDigestGolden)
	if err != nil {
		t.Fatalf("reading %s (rerun with UPDATE_ANALYZE_DIGEST=1 to create it): %v", analyzeDigestGolden, err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("golden has %d runs, registry sweep produced %d", len(wantLines), len(lines))
	}
	for i, l := range lines {
		if l != wantLines[i] {
			t.Errorf("output moved:\n got  %s\n want %s", l, wantLines[i])
		}
	}
}
