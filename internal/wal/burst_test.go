package wal

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pfs"
	"repro/internal/storage"
)

// TestBurstRunRecoverRoundTrip proves the uninterrupted half of the
// kill-and-recover contract for every model: the burst's WAL-mediated
// history satisfies the model's formal spec, and recovering its log
// directory replays to a state byte-identical to both the live run and a
// direct (WAL-free) run of the same writes.
func TestBurstRunRecoverRoundTrip(t *testing.T) {
	for _, sem := range pfs.AllSemantics() {
		sem := sem
		t.Run(sem.String(), func(t *testing.T) {
			t.Parallel()
			spec := BurstSpec{
				Semantics: sem,
				Ranks:     3,
				Records:   24,
				Block:     512,
				Log:       Options{Dir: t.TempDir(), NoFsync: true},
			}
			res, err := RunBurst(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Spec.OK() {
				t.Fatalf("live WAL-mediated history rejected: %s", res.Spec.Violation)
			}
			var acked int64
			for _, st := range res.Stats {
				acked += st.Acked + st.WriteThrough
			}
			if acked != int64(spec.Ranks*spec.Records) {
				t.Fatalf("acked+writethrough = %d, want %d", acked, spec.Ranks*spec.Records)
			}

			rep, err := RecoverBurst(spec)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Records != spec.Ranks*spec.Records || rep.Dropped != 0 {
				t.Fatalf("recovered %d records (dropped %d), want %d clean", rep.Records, rep.Dropped, spec.Ranks*spec.Records)
			}
			if !rep.Check.OK() {
				t.Fatalf("replayed history rejected: %s", rep.Check.Violation)
			}
			if err := diffDumps(res.Dump, rep.Dump); err != nil {
				t.Fatalf("recovered state differs from live run: %v", err)
			}
		})
	}
}

// TestRecoverBurstDetectsLoss proves the harness is not vacuous: silently
// deleting an acked record from the middle of a log makes recovery fail
// with an acked-write-loss (protocol mismatch) error.
func TestRecoverBurstDetectsLoss(t *testing.T) {
	dir := t.TempDir()
	spec := BurstSpec{Semantics: pfs.Commit, Ranks: 1, Records: 8, Block: 64,
		Log: Options{Dir: dir, NoFsync: true}}
	if _, err := RunBurst(spec); err != nil {
		t.Fatal(err)
	}
	// Rewrite rank 0's log without record 3 — a lost acked write.
	recs, _, err := RecoverDirOn(storage.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, logName(0)))
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs[0] {
		if i == 3 {
			continue
		}
		if _, err := appendRecord(f, rec, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverBurst(spec); err == nil {
		t.Fatal("RecoverBurst accepted a log with a deleted acked record")
	}
}
