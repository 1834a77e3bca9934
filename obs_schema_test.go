package semfs_test

import (
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"

	// Every package that registers instruments on the default registry. All
	// registration is init-time (package-level vars), so linking these in
	// makes the snapshot's key set the complete, deterministic instrument
	// namespace.
	_ "repro/internal/ckpt"
	_ "repro/internal/consistency"
	_ "repro/internal/core"
	_ "repro/internal/experiments"
	_ "repro/internal/faults"
	_ "repro/internal/pfs"
	_ "repro/internal/recorder"
	_ "repro/internal/storage"
	_ "repro/internal/wal"
)

const obsSchemaGolden = "testdata/obs_schema.golden"

// TestObsSchemaGolden pins the telemetry snapshot schema: the set of
// instrument names and their types. Dashboards and the CI telemetry step
// key on these names, so adding, renaming or retyping an instrument is a
// deliberate act — rerun with UPDATE_OBS_SCHEMA=1 to regenerate the golden
// file and put the diff in review.
func TestObsSchemaGolden(t *testing.T) {
	snap := obs.Default().Snapshot()
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
