package semfs_test

import (
	"testing"

	semfs "repro"
	"repro/internal/analysistest"
)

// TestTraceFormatEquivalence is the acceptance gate of the columnar trace
// format: for every application configuration of the registry, a trace saved
// columnar must reload with the records of its v1 copy, decoded by the
// test-support v1 decoder (the disk oracle), and produce a byte-identical
// analysis and rendered report at every load worker count — and the
// zero-copy cursor path over the mapped columnar directory must reproduce
// the oracle's analysis exactly. The on-disk format is a performance
// choice; it can never be an analysis variable.
func TestTraceFormatEquivalence(t *testing.T) {
	for _, name := range semfs.Applications() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := semfs.Run(name, semfs.RunOptions{Ranks: 16, PPN: 2, Seed: 1})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := res.Err(); err != nil {
				t.Fatalf("%s: rank error: %v", name, err)
			}
			analysistest.CheckFormats(t, name, res.Trace)
		})
	}
}
