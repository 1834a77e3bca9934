package faults

import "testing"

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
