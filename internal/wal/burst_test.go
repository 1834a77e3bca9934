package wal

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

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
	recs, _, err := recoverDirOn(storage.OS(), dir)
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

// logOnly routes the WAL's log files to a backend of their own and
// everything else (ack files, directories, recovery reads) to the
// embedded one, so the log can fail while the acks stay writable.
type logOnly struct {
	storage.Backend
	log storage.Backend
}

func (b logOnly) Open(path string, flags int, perm uint32) (storage.File, error) {
	if strings.HasSuffix(path, ".wal") {
		return b.log.Open(path, flags, perm)
	}
	return b.Backend.Open(path, flags, perm)
}

// TestRecoverBurstWedgedLog: when the log's backend wedges mid-burst, the
// WAL degrades to write-through and keeps acking writes it never logged.
// Those acks rest on the (in-memory) file system, not the log, so
// recovery's acked-write floor counts only the log-backed ones and the
// report says how many rest on write-through; a log record lost from
// under a log-backed ack is still flagged.
func TestRecoverBurstWedgedLog(t *testing.T) {
	dir := t.TempDir()
	wedged := storage.NewRetry(storage.NewFlaky(storage.OS(), storage.Schedule{WedgeAfter: 24}),
		storage.RetryOptions{Sleep: func(time.Duration) {}})
	spec := BurstSpec{Semantics: pfs.Commit, Ranks: 2, Records: 16, Block: 64,
		Log: Options{Dir: dir, Backend: logOnly{Backend: storage.OS(), log: wedged}}}
	res, err := RunBurst(spec)
	if err != nil {
		t.Fatal(err)
	}
	var through int64
	for _, st := range res.Stats {
		through += st.WriteThrough
	}
	if through == 0 {
		t.Fatalf("the log never wedged: %+v", res.Stats)
	}

	spec.Log.Backend = storage.OS()
	rep, err := RecoverBurst(spec)
	if err != nil {
		t.Fatalf("recovery of a wedged-log burst: %v", err)
	}
	reported := 0
	for r := range rep.PerRank {
		reported += rep.WriteThrough[r]
		if rep.Acked[r]+rep.WriteThrough[r] != spec.Records {
			t.Errorf("rank %d: %d log-backed + %d write-through acks, want %d", r, rep.Acked[r], rep.WriteThrough[r], spec.Records)
		}
	}
	if int64(reported) != through {
		t.Fatalf("report counts %d write-through acks, the WALs %d", reported, through)
	}
	if !strings.Contains(FormatReport(rep), "acked by write-through") {
		t.Fatalf("report does not mention the write-through acks:\n%s", FormatReport(rep))
	}

	// Cut a rank's log to one record short of its log-backed acks. (The
	// log may hold a record beyond them: an append whose fsync failed
	// leaves its frame behind, and the write is acked by write-through.)
	recs, _, err := recoverDirOn(storage.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	r := slices.IndexFunc(rep.Acked, func(n int) bool { return n > 0 })
	if r < 0 {
		t.Fatal("no rank acked a write from its log before the wedge")
	}
	f, err := os.Create(filepath.Join(dir, logName(r)))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs[r][:rep.Acked[r]-1] {
		if _, err := appendRecord(f, rec, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverBurst(spec); err == nil || !strings.Contains(err.Error(), "ACKED WRITE LOST") {
		t.Fatalf("RecoverBurst after dropping a log-backed record: %v", err)
	}
}

// TestBackoffJitterBounds: when the log's backend wedges, every append the
// retry policy gives up on sleeps the default backoff between its tries —
// the k-th sleep within ±25% of 100µs·2^k — and the sleep sequence of a
// one-rank burst is identical run to run.
func TestBackoffJitterBounds(t *testing.T) {
	const perOp = 4 // retries of one exhausted operation
	run := func() []time.Duration {
		var sleeps []time.Duration
		wedged := storage.NewRetry(storage.NewFlaky(storage.OS(), storage.Schedule{WedgeAfter: 8}),
			storage.RetryOptions{Sleep: func(d time.Duration) { sleeps = append(sleeps, d) }})
		spec := BurstSpec{Semantics: pfs.Commit, Ranks: 1, Records: 16, Block: 64,
			Log: Options{Dir: t.TempDir(), Backend: logOnly{Backend: storage.OS(), log: wedged}}}
		if _, err := RunBurst(spec); err != nil {
			t.Fatal(err)
		}
		return sleeps
	}

	s1 := run()
	if len(s1) == 0 || len(s1)%perOp != 0 {
		t.Fatalf("%d sleeps, want a positive multiple of %d", len(s1), perOp)
	}
	for i, d := range s1 {
		nominal := time.Duration(100_000) << (i % perOp)
		if lo, hi := nominal-nominal/4, nominal+nominal/4; d < lo || d > hi {
			t.Fatalf("sleep %d: %v outside [%v, %v] (nominal %v)", i, d, lo, hi, nominal)
		}
	}
	if s2 := run(); !slices.Equal(s1, s2) {
		t.Fatalf("sleep sequences differ run to run:\n%v\n%v", s1, s2)
	}
}
