package wal_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/payload"
	"repro/internal/pfs"
	"repro/internal/storage"
	"repro/internal/wal"
)

// createEmpty creates a zero-length file at path on the local disk, as a
// rank that opened its log and died before the first append leaves it.
func createEmpty(t *testing.T, path string) {
	t.Helper()
	f, err := storage.OS().Open(path, storage.OCreate|storage.OWronly, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverDirZeroLengthLog is the regression for the zero-length /
// missing distinction: a rank that opened its log but was killed before the
// first append must recover as an explicit empty record list, not vanish
// like a rank that never ran.
func TestRecoverDirZeroLengthLog(t *testing.T) {
	dir := t.TempDir()
	createEmpty(t, filepath.Join(dir, "rank-0000.wal"))
	recs, stats, err := wal.RecoverDirOn(storage.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	rr, ok := recs[0]
	if !ok {
		t.Fatal("zero-length log recovered as missing — the rank DID start")
	}
	if rr == nil || len(rr) != 0 {
		t.Fatalf("zero-length log: recs = %#v, want explicit empty slice", rr)
	}
	if _, ok := recs[1]; ok {
		t.Fatal("rank with no log file gained a recovery entry")
	}
	if s := stats[0]; s.Records != 0 || s.Dropped != 0 {
		t.Fatalf("zero-length log stats = %+v", s)
	}
}

// TestRecoverBurstAckFileDistinction: the recovery report must state, per
// rank, whether an ack file exists at all — a zero-length ack file (rank
// started, acked nothing) and a missing one (rank never got that far) both
// floor at 0 but are different harness states.
func TestRecoverBurstAckFileDistinction(t *testing.T) {
	dir := t.TempDir()
	for r := 0; r < 2; r++ {
		createEmpty(t, filepath.Join(dir, fmt.Sprintf("rank-%04d.wal", r)))
	}
	// Rank 0 opened its ack file and died; rank 1 never did.
	createEmpty(t, filepath.Join(dir, "acks-rank-0000.log"))
	rep, err := wal.RecoverBurst(wal.BurstSpec{
		Semantics: pfs.Strong, Ranks: 2, Log: wal.Options{Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.AckFiles) != 2 || !rep.AckFiles[0] || rep.AckFiles[1] {
		t.Fatalf("AckFiles = %v, want [true false]", rep.AckFiles)
	}
	if rep.Acked[0] != 0 || rep.Acked[1] != 0 {
		t.Fatalf("Acked = %v, want zero floors", rep.Acked)
	}
	out := wal.FormatReport(rep)
	if !strings.Contains(out, "ack file present") || !strings.Contains(out, "no ack file") {
		t.Fatalf("report does not distinguish ack-file states:\n%s", out)
	}
}

// burstSpec returns the small backend-matrix workload: 2 ranks × 8 records.
func burstSpec(dir string, b storage.Backend) wal.BurstSpec {
	return wal.BurstSpec{
		Semantics: pfs.Commit, Ranks: 2, Records: 8, Block: 128, CommitEvery: 4,
		Log: wal.Options{Dir: dir, Backend: b},
	}
}

// TestBurstRecoverBackends runs the full burst + recovery proof in-process
// over each backend: osdisk and a flaky transient-only schedule under the
// retry policy. RecoverBurst itself asserts zero acked-write loss,
// byte-exact salvage and spec-accepted replay; on top of that the
// uninterrupted runs must recover complete and, for the transient-only
// schedule, finish with zero degraded writes.
func TestBurstRecoverBackends(t *testing.T) {
	noSleep := func(time.Duration) {}
	cases := []struct {
		name    string
		backend func(t *testing.T) storage.Backend
	}{
		{"osdisk", func(t *testing.T) storage.Backend { return storage.OS() }},
		{"flaky-transient", func(t *testing.T) storage.Backend {
			sched := storage.GenSchedule(5, storage.GenOptions{
				Count: 8,
				Kinds: []storage.FaultKind{storage.FaultTransient},
			})
			if !sched.TransientOnly() {
				t.Fatalf("schedule not transient-only:\n%s", sched.Encode())
			}
			return storage.NewRetry(storage.NewFlaky(storage.OS(), sched),
				storage.RetryOptions{Sleep: noSleep})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.backend(t)
			spec := burstSpec(filepath.Join(t.TempDir(), "wal"), b)
			res, err := wal.RunBurst(spec)
			if err != nil {
				t.Fatalf("burst: %v", err)
			}
			if !res.Spec.OK() {
				t.Fatalf("burst history rejected: %s", res.Spec.Violation)
			}
			for r, st := range res.Stats {
				if st.WriteThrough != 0 {
					t.Fatalf("rank %d degraded to write-through %d times on a healthy/transient-only backend",
						r, st.WriteThrough)
				}
			}
			rep, err := wal.RecoverBurst(spec)
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if rep.Records != spec.Ranks*spec.Records {
				t.Fatalf("recovered %d records, want %d", rep.Records, spec.Ranks*spec.Records)
			}
			for r := 0; r < spec.Ranks; r++ {
				if !rep.AckFiles[r] || rep.Acked[r] != spec.Records {
					t.Fatalf("rank %d ack floor: present=%v acked=%d", r, rep.AckFiles[r], rep.Acked[r])
				}
			}
			// Byte-identical resumed report: the formatted dump of the
			// recovered state must match a direct uninterrupted run's.
			want := wal.FormatDump(wal.DirectDump(spec, rep.PerRank))
			if got := wal.FormatDump(rep.Dump); got != want {
				t.Fatalf("recovered dump differs from direct run:\n got:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestWALPersistentBackendFailureDegrades: when the log backend wedges for
// good (retry policy exhausted), the WAL must not fail application writes —
// it goes sticky write-through and every write still lands in the pfs.
func TestWALPersistentBackendFailureDegrades(t *testing.T) {
	// Each WAL append is 3 eligible flaky ops (two half-frame writes + one
	// fsync); wedging after 6 lets exactly two appends ack off the log before
	// the backend dies mid-third.
	b := storage.NewRetry(storage.NewFlaky(storage.OS(), storage.Schedule{WedgeAfter: 6}),
		storage.RetryOptions{Sleep: func(time.Duration) {}})
	fs := pfs.New(pfs.Options{Semantics: pfs.Strong})
	c := fs.NewClient(0)
	l, err := wal.Open(0, wal.Options{Dir: filepath.Join(t.TempDir(), "wal"), Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	var now uint64
	tick := func() uint64 { now += 10; return now }
	h, _, err := c.Open("/degrade.dat", pfs.OCreat|pfs.ORdwr, tick())
	if err != nil {
		t.Fatal(err)
	}
	block := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, 32) }
	for i := 0; i < 5; i++ {
		if _, err := l.Write(h, int64(i)*32, payload.Bytes(block(i)), tick()); err != nil {
			t.Fatalf("write %d must survive the log failure via write-through: %v", i, err)
		}
	}
	if !l.Degraded() {
		t.Fatal("log not degraded after its backend wedged")
	}
	st := l.Stats()
	if st.Acked != 2 || st.WriteThrough != 3 {
		t.Fatalf("stats = %+v, want 2 acked + 3 write-through", st)
	}
	// Every write — logged or degraded — must be readable back at full size.
	for i := 0; i < 5; i++ {
		got, _, err := h.Read(int64(i)*32, 32, tick())
		if err != nil || !bytes.Equal(got.Materialize(), block(i)) {
			t.Fatalf("readback %d: %q, %v", i, got, err)
		}
	}
	if _, err := h.Close(tick()); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
