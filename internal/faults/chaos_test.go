package faults

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/pfs"
)

// shortApps is the quick chaos subset: cheap configurations covering POSIX
// file-per-process, HDF5 shared-file and MPI-IO collective protocols.
func shortApps() []string {
	return []string{"GTC", "NWChem", "HACC-IO-MPI-IO", "FLASH-fbs"}
}

func allSemantics() []pfs.Semantics {
	return []pfs.Semantics{pfs.Strong, pfs.Commit, pfs.Session, pfs.Eventual}
}

func TestChaosSweepShort(t *testing.T) {
	rep, err := Sweep(context.Background(), SweepOptions{
		Apps:      shortApps(),
		Semantics: allSemantics(),
		Seeds:     []uint64{1, 2},
		Replay:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(shortApps()) * 4 * 2; len(rep.Cells) != want {
		t.Fatalf("%d cells, want %d", len(rep.Cells), want)
	}
	if rep.TotalFired == 0 {
		t.Fatal("no faults fired across the whole sweep")
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	out := RenderSweep(rep)
	if !strings.Contains(out, "GTC") || !strings.Contains(out, "0 violation(s)") {
		t.Fatalf("render:\n%s", out)
	}
}

// TestChaosSchedulesByteIdenticalAcrossSweeps pins the acceptance contract:
// the same sweep options reproduce the same fault schedule in every cell,
// run after run, regardless of pool size.
func TestChaosSchedulesByteIdenticalAcrossSweeps(t *testing.T) {
	opts := SweepOptions{
		Apps:      []string{"GTC", "NWChem"},
		Semantics: allSemantics(),
		Seeds:     []uint64{7},
	}
	a, err := Sweep(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 1
	b, err := Sweep(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cells) != len(b.Cells) || len(a.Cells) == 0 {
		t.Fatalf("cell counts differ: %d vs %d", len(a.Cells), len(b.Cells))
	}
	fp := func(cells []Cell) map[string]uint64 {
		m := make(map[string]uint64)
		for _, c := range cells {
			m[c.App+"/"+c.Semantics.String()] = c.ScheduleFP
		}
		return m
	}
	fa, fb := fp(a.Cells), fp(b.Cells)
	for k, v := range fa {
		if fb[k] != v {
			t.Errorf("%s: schedule fingerprint %016x != %016x across sweeps", k, v, fb[k])
		}
	}
}

// TestChaosCellScheduleStableUnderFiltering pins the single-cell repro
// contract behind Cell.reproCommand: a cell's schedule depends on the app's
// name, not its position in the sweep's app list, so re-running just that
// cell with -chaos-apps reproduces the exact schedule from the full sweep.
func TestChaosCellScheduleStableUnderFiltering(t *testing.T) {
	full, err := Sweep(context.Background(), SweepOptions{
		Apps:      []string{"GTC", "NWChem", "FLASH-fbs"},
		Semantics: allSemantics(),
		Seeds:     []uint64{5},
	})
	if err != nil {
		t.Fatal(err)
	}
	// NWChem is index 1 above and index 0 here — the fingerprints must not
	// notice.
	solo, err := Sweep(context.Background(), SweepOptions{
		Apps:      []string{"NWChem"},
		Semantics: allSemantics(),
		Seeds:     []uint64{5},
	})
	if err != nil {
		t.Fatal(err)
	}
	fullFP := make(map[string]uint64)
	for _, c := range full.Cells {
		if c.App == "NWChem" {
			fullFP[c.Semantics.String()] = c.ScheduleFP
		}
	}
	for _, c := range solo.Cells {
		if got, want := c.ScheduleFP, fullFP[c.Semantics.String()]; got != want {
			t.Errorf("%s/%s: filtered schedule %016x != full-sweep %016x — ReproCommand would not reproduce",
				c.App, c.Semantics, got, want)
		}
	}
	// And the rendered violation block carries a paste-ready command.
	cmd := Cell{App: "NWChem", Semantics: pfs.Commit, Seed: 5}.reproCommand()
	for _, want := range []string{"-chaos-apps \"NWChem\"", "-chaos-semantics commit", "-chaos-seeds 5"} {
		if !strings.Contains(cmd, want) {
			t.Errorf("ReproCommand %q missing %q", cmd, want)
		}
	}
}

func TestChaosSweepCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Sweep(ctx, SweepOptions{Apps: []string{"GTC"}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
}

func TestChaosSweepRestrictedKinds(t *testing.T) {
	// A kinds restriction flows into every generated schedule: sweeping with
	// only commit-crash faults at N=1 must fire on commit-heavy apps.
	rep, err := Sweep(context.Background(), SweepOptions{
		Apps:      []string{"NWChem"},
		Semantics: []pfs.Semantics{pfs.Commit},
		Seeds:     []uint64{1, 2, 3},
		Kinds:     []Kind{CrashBeforeCommit, CrashAfterCommit, LostFsync},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
}

// TestChaosFullRegistry is the full acceptance matrix: every registry
// configuration × all four semantics under the complete fault taxonomy.
func TestChaosFullRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("full chaos matrix skipped in -short mode")
	}
	rep, err := Sweep(context.Background(), SweepOptions{
		Apps:      apps.Names(),
		Semantics: allSemantics(),
		Seeds:     []uint64{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(apps.Names()) * 4; len(rep.Cells) != want {
		t.Fatalf("%d cells, want %d", len(rep.Cells), want)
	}
	if rep.TotalFired == 0 {
		t.Fatal("no faults fired")
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	t.Logf("\n%s", RenderSweep(rep))
}
