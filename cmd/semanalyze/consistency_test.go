package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	semfs "repro"
	"repro/internal/apps"
	"repro/internal/experiments"
	"repro/internal/recorder"
	"repro/internal/storage"
)

// consistencyTable is the cross-model table for name at scale.
func consistencyTable(t *testing.T, name string, scale experiments.Scale) string {
	t.Helper()
	cells, err := experiments.ConsistencyComparison(context.Background(), scale, []string{name})
	if err != nil {
		t.Fatal(err)
	}
	return experiments.ConsistencyTable(cells)
}

// TestCheckConsistencyUsesTracedScale: -check-consistency re-runs the
// configuration at the scale trace.meta records (ranks, PPN, seed and
// steps), not at experiments.TestScale's PPN and seed, and decodes no rank
// file, so a truncated one does not stop the check; a missing one does.
func TestCheckConsistencyUsesTracedScale(t *testing.T) {
	const name = "FLASH-nofbs"
	res, err := semfs.Run(name, semfs.RunOptions{Ranks: 8, PPN: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	meta := res.Trace.Meta
	if meta.PPN != 4 || meta.Seed != 3 || meta.Steps == 0 {
		t.Fatalf("trace.meta does not record the run's scale: %+v", meta)
	}
	disk := storage.OS()
	dir := filepath.Join(t.TempDir(), "trace")
	if err := semfs.SaveTraceOn(disk, dir, res.Trace); err != nil {
		t.Fatal(err)
	}

	traced := experiments.Scale{Ranks: 8, PPN: 4, Seed: 3, Params: apps.Params{Steps: meta.Steps}}
	want := consistencyTable(t, name, traced)
	fallback := experiments.TestScale()
	fallback.Ranks, fallback.Params.Steps = traced.Ranks, traced.Params.Steps
	if want == consistencyTable(t, name, fallback) {
		t.Fatal("the table does not depend on PPN and seed; the test cannot tell the scales apart")
	}

	var clean bytes.Buffer
	code := checkConsistency(&clean, disk, dir)
	if code != exitClean || !strings.HasPrefix(clean.String(), want) {
		t.Fatalf("exit %d, output\n%s\nwant the table at the traced scale\n%s", code, clean.String(), want)
	}

	truncateRank(t, dir, 1)
	var damaged bytes.Buffer
	if code := checkConsistency(&damaged, disk, dir); code != exitClean || damaged.String() != clean.String() {
		t.Fatalf("with a truncated rank file: exit %d, output\n%s\nwant exit %d and the undamaged output", code, damaged.String(), exitClean)
	}
	// A trace.meta is trusted only beside its rank files: with one missing,
	// the check fails instead of simulating the scale the metadata claims.
	if err := os.Remove(filepath.Join(dir, recorder.RankFileName(7))); err != nil {
		t.Fatal(err)
	}
	if code := checkConsistency(&bytes.Buffer{}, disk, dir); code != exitError {
		t.Fatalf("without rank 7's file: exit %d, want %d", code, exitError)
	}
	if err := os.Remove(filepath.Join(dir, "trace.meta")); err != nil {
		t.Fatal(err)
	}
	if code := checkConsistency(&bytes.Buffer{}, disk, dir); code != exitError {
		t.Fatalf("without trace.meta: exit %d, want %d", code, exitError)
	}
}
