package semfs_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	semfs "repro"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/storage"

	// With experiments above, every package that registers instruments on
	// the default registry. All registration is init-time (package-level
	// vars), so linking these in makes the snapshot's key set the complete,
	// deterministic instrument namespace.
	_ "repro/internal/consistency"
	_ "repro/internal/core"
	_ "repro/internal/pfs"
	_ "repro/internal/recorder/colfmt"
	_ "repro/internal/wal"
)

const obsSchemaGolden = "testdata/obs_schema.golden"

// TestObsSchemaGolden pins the telemetry snapshot schema: the set of
// instrument names and their types. Dashboards and the CI telemetry step
// key on these names, so adding, renaming or retyping an instrument is a
// deliberate act — rerun with UPDATE_OBS_SCHEMA=1 to regenerate the golden
// file and put the diff in review.
func TestObsSchemaGolden(t *testing.T) {
	lines := schemaLines(obs.Default().Snapshot())
	got := strings.Join(lines, "\n") + "\n"

	if os.Getenv("UPDATE_OBS_SCHEMA") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(obsSchemaGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d instruments)", obsSchemaGolden, len(lines))
		return
	}

	want, err := os.ReadFile(obsSchemaGolden)
	if err != nil {
		t.Fatalf("reading %s (rerun with UPDATE_OBS_SCHEMA=1 to create it): %v", obsSchemaGolden, err)
	}
	if got == string(want) {
		return
	}
	wantSet := make(map[string]bool)
	for _, l := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		wantSet[l] = true
	}
	gotSet := make(map[string]bool)
	for _, l := range lines {
		gotSet[l] = true
		if !wantSet[l] {
			t.Errorf("instrument not in golden schema: %s", l)
		}
	}
	for l := range wantSet {
		if !gotSet[l] {
			t.Errorf("instrument missing from registry: %s", l)
		}
	}
	t.Errorf("obs snapshot schema drifted from %s — if intended, rerun with UPDATE_OBS_SCHEMA=1", obsSchemaGolden)
}

// schemaLines renders a snapshot's key set as sorted "<kind> <name>" lines,
// the golden file's format.
func schemaLines(snap obs.Snapshot) []string {
	var lines []string
	for name := range snap.Counters {
		lines = append(lines, "counter "+name)
	}
	for name := range snap.Gauges {
		lines = append(lines, "gauge "+name)
	}
	for name := range snap.Histograms {
		lines = append(lines, "histogram "+name)
	}
	sort.Strings(lines)
	return lines
}

// TestObsSchemaReachable proves every instrument in the golden schema has a
// reader: it drives small representative runs through the CLIs' -metrics
// plumbing (which exports only what the run touched) and requires the
// union of the exported names to be exactly the golden set. An instrument
// that none of these runs touches is dead weight and is deleted, not
// exempted here.
func TestObsSchemaReachable(t *testing.T) {
	ctx := context.Background()
	traceDir := filepath.Join(t.TempDir(), "trace")
	small := experiments.Scale{Ranks: 4, PPN: 2, Seed: 1}
	analyze := func(workers int) func() error {
		return func() error {
			an, err := semfs.AnalyzeDirOn(storage.OS(), traceDir, workers)
			if err == nil && an.HBErr != nil {
				err = an.HBErr
			}
			return err
		}
	}
	paths := []struct {
		name string
		run  func() error
	}{
		{"trace", func() error {
			res, err := semfs.Run("FLASH-nofbs", semfs.RunOptions{Ranks: 4, PPN: 2, Seed: 1})
			if err != nil {
				return err
			}
			return semfs.SaveTraceOn(storage.OS(), traceDir, res.Trace)
		}},
		{"analyze/workers=1", analyze(1)},
		{"analyze/workers=4", analyze(4)},
		// Every model, direct and through per-rank WALs, each run's history
		// checked against the model's formal spec.
		{"wal-spec-check", func() error {
			_, err := experiments.WALComparison(ctx, small, []string{"FLASH-nofbs"})
			return err
		}},
		{"consistency-sweep", func() error {
			_, err := experiments.ConsistencyComparison(ctx, small, []string{"FLASH-nofbs"})
			return err
		}},
		{"registry-sweep", func() error {
			_, err := experiments.RunAllCtx(ctx, small, experiments.SweepOptions{})
			return err
		}},
	}
	metrics := filepath.Join(t.TempDir(), "metrics.json")
	union := make(map[string]bool)
	for _, p := range paths {
		tele := obs.CLIFlags{Metrics: metrics}
		if err := tele.Start(); err != nil {
			t.Fatal(err)
		}
		err := p.run()
		if ferr := tele.Flush(); ferr != nil {
			t.Fatal(ferr)
		}
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		raw, err := os.ReadFile(metrics)
		if err != nil {
			t.Fatal(err)
		}
		var snap obs.Snapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			t.Fatalf("%s: -metrics file does not parse: %v", p.name, err)
		}
		touched := schemaLines(snap)
		if len(touched) == 0 {
			t.Errorf("%s touched no instrument", p.name)
		}
		t.Logf("%s: %s", p.name, strings.Join(touched, ", "))
		for _, l := range touched {
			union[l] = true
		}
	}

	want, err := os.ReadFile(obsSchemaGolden)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		if !union[l] {
			t.Errorf("no representative run touches %s: give it a reader or delete it", l)
		}
		delete(union, l)
	}
	for l := range union {
		t.Errorf("a run exported %s, which is not in %s", l, obsSchemaGolden)
	}
}
