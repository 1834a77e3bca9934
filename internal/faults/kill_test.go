package faults

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/payload"
	"repro/internal/recorder"
)

// Fatal hits SIGKILL the process, so everything here arms thresholds the
// test never reaches; the WAL kill-and-recover harness in internal/wal
// exercises the fatal path in a re-exec'd child.

func TestArmKillPointsCounts(t *testing.T) {
	t.Cleanup(ResetKillPoints)
	ResetKillPoints()
	if err := armKillPoints("wal.append.torn:5, other.point:2"); err != nil {
		t.Fatalf("ArmKillPoints: %v", err)
	}
	killHit("wal.append.torn")
	killHit("wal.append.torn")
	killHit("unarmed.point")
	if got := KillPointHits("wal.append.torn"); got != 2 {
		t.Fatalf("KillPointHits = %d, want 2", got)
	}
	// Unarmed points still count once any arming happened — they are live
	// call sites, just not fatal ones.
	if got := KillPointHits("unarmed.point"); got != 1 {
		t.Fatalf("KillPointHits(unarmed) = %d, want 1", got)
	}
}

func TestHitWithoutArmingIsFree(t *testing.T) {
	t.Cleanup(ResetKillPoints)
	ResetKillPoints()
	killHit("anything")
	if got := KillPointHits("anything"); got != 0 {
		t.Fatalf("unarmed process counted hits: %d", got)
	}
}

func TestArmKillPointsRejectsBadSpecs(t *testing.T) {
	t.Cleanup(ResetKillPoints)
	for _, spec := range []string{"nocount", "point:", "point:0", "point:-1", "point:x", "good:1000000,bad:x"} {
		ResetKillPoints()
		if err := armKillPoints(spec); err == nil {
			t.Errorf("ArmKillPoints(%q) accepted", spec)
		}
		// A rejected spec arms nothing, not even its good parts: the
		// process stays unarmed and killHit does not count.
		killHit("good")
		if got := KillPointHits("good"); got != 0 {
			t.Errorf("after rejecting %q, KillPointHits(good) = %d, want 0", spec, got)
		}
	}
	ResetKillPoints()
	if err := armKillPoints(""); err != nil {
		t.Errorf("empty spec rejected: %v", err)
	}
}

func TestPFSOpKillPointsObserveDataPath(t *testing.T) {
	t.Cleanup(ResetKillPoints)
	ResetKillPoints()
	// Threshold far above anything the workload performs: the hook must
	// observe and count operations without killing.
	if err := armKillPoints("pfs.op.write:100000"); err != nil {
		t.Fatalf("ArmKillPoints: %v", err)
	}
	meta := recorder.Meta{App: "kill-test", Ranks: 2, PPN: 2, Seed: 1}
	res, err := harness.Run(harness.Config{Ranks: 2, PPN: 2, Seed: 1}, meta, func(c *harness.Ctx) error {
		fd, err := c.OS.Open("/k.dat", recorder.OCreat|recorder.OWronly, 0o644)
		if err != nil {
			return err
		}
		if _, err := c.OS.Pwrite(fd, payload.Bytes(make([]byte, 32)), int64(c.Rank)*32); err != nil {
			return err
		}
		return c.OS.Close(fd)
	})
	if err != nil {
		t.Fatalf("harness.Run: %v", err)
	}
	if err := res.Err(); err != nil {
		t.Fatalf("rank error: %v", err)
	}
	if got := KillPointHits("pfs.op.write"); got < 2 {
		t.Fatalf("pfs.op.write hits = %d, want >= 2 (one write per rank)", got)
	}
	if got := KillPointHits("pfs.op.close"); got < 2 {
		t.Fatalf("pfs.op.close hits = %d, want >= 2", got)
	}
}
