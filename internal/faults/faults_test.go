package faults

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/payload"
	"repro/internal/pfs"
)

func TestScheduleDeterminism(t *testing.T) {
	o := genOptions{Ranks: 8}
	a, b := generate(42, o), generate(42, o)
	if !bytes.Equal(a.encode(), b.encode()) {
		t.Fatalf("same seed, different schedules:\n%s\nvs\n%s", a.encode(), b.encode())
	}
	if a.fingerprint() != b.fingerprint() {
		t.Fatal("fingerprints differ for identical schedules")
	}
	if c := generate(43, o); bytes.Equal(a.encode(), c.encode()) {
		t.Fatal("different seeds produced identical schedules")
	}
	if len(a.Injections) == 0 {
		t.Fatal("empty schedule")
	}
	for _, in := range a.Injections {
		if in.Rank < 0 || in.Rank >= 8 || in.N < 1 {
			t.Fatalf("out-of-range injection %+v", in)
		}
	}
	// Restricting kinds restricts the draw.
	only := generate(42, genOptions{Ranks: 8, Kinds: []Kind{TornWrite}})
	for _, in := range only.Injections {
		if in.Kind != TornWrite {
			t.Fatalf("kind restriction violated: %+v", in)
		}
	}
}

func TestKindStringsAndClasses(t *testing.T) {
	for _, k := range allKinds() {
		if strings.HasPrefix(k.String(), "kind#") {
			t.Fatalf("kind %d has no name", int(k))
		}
	}
	if Kind(99).String() != "kind#99" {
		t.Fatal("unknown kind string")
	}
	// Each kind's class must consider the ops it perturbs eligible.
	if !TornWrite.class().matches(pfs.OpWrite) ||
		!LostFsync.class().matches(pfs.OpCommit) ||
		!ReorderPublish.class().matches(pfs.OpClose) ||
		!TransientError.class().matches(pfs.OpRead) ||
		!CrashBeforeCommit.class().matches(pfs.OpCommit) {
		t.Fatal("class eligibility broken")
	}
	if classCommit.matches(pfs.OpWrite) || classWrite.matches(pfs.OpRead) {
		t.Fatal("class over-matching")
	}
}

// injectorFS builds a file system with one armed injection and two clients.
func injectorFS(t *testing.T, sem pfs.Semantics, injs ...faultInjection) (*pfs.FileSystem, *faultInjector, *pfs.Client, *pfs.Client) {
	t.Helper()
	inj := newFaultInjector(faultSchedule{Injections: injs})
	fs := pfs.New(pfs.Options{Semantics: sem, EventualDelay: 1000})
	fs.SetInjector(inj)
	return fs, inj, fs.NewClient(0), fs.NewClient(1)
}

func write(t *testing.T, h *pfs.Handle, off int64, data []byte, now uint64) {
	t.Helper()
	if _, err := h.Write(off, payload.Bytes(data), now); err != nil {
		t.Fatal(err)
	}
}

func readAt(t *testing.T, c *pfs.Client, path string, n int64, now uint64) []byte {
	t.Helper()
	h, _, err := c.Open(path, pfs.ORdonly, now)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := h.Read(0, n, now)
	if err != nil {
		t.Fatal(err)
	}
	data := p.Materialize()
	if _, err := h.Close(now); err != nil {
		t.Fatal(err)
	}
	return data
}

func TestTornWriteKeepsPrefix(t *testing.T) {
	_, inj, w, r := injectorFS(t, pfs.Strong, faultInjection{Rank: 0, Kind: TornWrite, N: 1, Arg: 4})
	h, _, err := w.Open("/f", pfs.OCreat|pfs.OWronly, 1)
	if err != nil {
		t.Fatal(err)
	}
	write(t, h, 0, []byte("ABCDEFGH"), 2)
	if _, err := h.Close(3); err != nil {
		t.Fatal(err)
	}
	got := readAt(t, r, "/f", 8, 10)
	if string(got) != "ABCD" {
		t.Fatalf("torn write left %q, want ABCD", got)
	}
	if inj.firedCount() != 1 {
		t.Fatalf("fired = %d", inj.firedCount())
	}
	// The second write on the same rank is untouched.
	h2, _, err := w.Open("/g", pfs.OCreat|pfs.OWronly, 20)
	if err != nil {
		t.Fatal(err)
	}
	write(t, h2, 0, []byte("ABCDEFGH"), 21)
	if got := readAt(t, r, "/g", 8, 30); string(got) != "ABCDEFGH" {
		t.Fatalf("second write perturbed: %q", got)
	}
}

func TestTornWriteNeverKeepsWholePayload(t *testing.T) {
	_, _, w, r := injectorFS(t, pfs.Strong, faultInjection{Rank: 0, Kind: TornWrite, N: 1, Arg: 512})
	h, _, err := w.Open("/f", pfs.OCreat|pfs.OWronly, 1)
	if err != nil {
		t.Fatal(err)
	}
	write(t, h, 0, []byte("ABCD"), 2)
	if got := readAt(t, r, "/f", 4, 10); string(got) != "ABC" {
		t.Fatalf("torn write with oversized keep left %q, want ABC", got)
	}
}

func TestLostFsyncThenRealCommit(t *testing.T) {
	_, inj, w, r := injectorFS(t, pfs.Commit, faultInjection{Rank: 0, Kind: LostFsync, N: 1})
	h, _, err := w.Open("/ckpt", pfs.OCreat|pfs.OWronly, 1)
	if err != nil {
		t.Fatal(err)
	}
	write(t, h, 0, []byte("DATA"), 2)
	if _, err := h.Commit(3); err != nil {
		t.Fatalf("lost fsync must look like success: %v", err)
	}
	if got := readAt(t, r, "/ckpt", 4, 4); len(got) != 0 {
		t.Fatalf("dropped commit still published %q", got)
	}
	// The writes stay pending: the next (uninjected) fsync publishes them.
	if _, err := h.Commit(5); err != nil {
		t.Fatal(err)
	}
	if got := readAt(t, r, "/ckpt", 4, 6); string(got) != "DATA" {
		t.Fatalf("recovery commit published %q", got)
	}
	if inj.firedCount() != 1 {
		t.Fatalf("fired = %d", inj.firedCount())
	}
}

func TestCrashBeforeCommitLosesPending(t *testing.T) {
	_, inj, w, r := injectorFS(t, pfs.Commit, faultInjection{Rank: 0, Kind: CrashBeforeCommit, N: 1})
	h, _, err := w.Open("/ckpt", pfs.OCreat|pfs.OWronly, 1)
	if err != nil {
		t.Fatal(err)
	}
	write(t, h, 0, []byte("DATA"), 2)
	if _, err := h.Commit(3); !errors.Is(err, pfs.ErrCrashed) {
		t.Fatalf("commit err = %v, want ErrCrashed", err)
	}
	if !w.Crashed() {
		t.Fatal("client not marked crashed")
	}
	if _, err := h.Write(4, payload.Bytes([]byte("MORE")), 4); !errors.Is(err, pfs.ErrCrashed) {
		t.Fatalf("post-crash write err = %v", err)
	}
	if got := readAt(t, r, "/ckpt", 4, 10); len(got) != 0 {
		t.Fatalf("crashed commit published %q", got)
	}
	if ranks := inj.crashedRanks(); len(ranks) != 1 || ranks[0] != 0 {
		t.Fatalf("CrashedRanks = %v", ranks)
	}
}

func TestCrashAfterCommitIsDurable(t *testing.T) {
	_, _, w, r := injectorFS(t, pfs.Commit, faultInjection{Rank: 0, Kind: CrashAfterCommit, N: 1})
	h, _, err := w.Open("/ckpt", pfs.OCreat|pfs.OWronly, 1)
	if err != nil {
		t.Fatal(err)
	}
	write(t, h, 0, []byte("DATA"), 2)
	if _, err := h.Commit(3); !errors.Is(err, pfs.ErrCrashed) {
		t.Fatalf("commit err = %v, want ErrCrashed", err)
	}
	// The commit landed before the crash: other processes see the data.
	if got := readAt(t, r, "/ckpt", 4, 10); string(got) != "DATA" {
		t.Fatalf("crash-after-commit lost the commit: %q", got)
	}
}

func TestDelayedPublishUnderEventual(t *testing.T) {
	// EventualDelay is 1000 ns (injectorFS); the injection adds 5000 more.
	_, _, w, r := injectorFS(t, pfs.Eventual, faultInjection{Rank: 0, Kind: DelayedPublish, N: 1, Arg: 5000})
	h, _, err := w.Open("/f", pfs.OCreat|pfs.OWronly, 1)
	if err != nil {
		t.Fatal(err)
	}
	write(t, h, 0, []byte("DATA"), 1000)
	// Normal propagation point: still invisible because of the added delay.
	if got := readAt(t, r, "/f", 4, 1000+1000); len(got) != 0 {
		t.Fatalf("delayed publish visible too early: %q", got)
	}
	// After the injected delay has elapsed as well: visible.
	if got := readAt(t, r, "/f", 4, 1000+1000+5000); string(got) != "DATA" {
		t.Fatalf("delayed publish never arrived: %q", got)
	}
}

func TestReorderPublishFlipsSameProcessOverlap(t *testing.T) {
	// Two overlapping writes in one commit batch: in order, the second wins;
	// reordered, the first does.
	run := func(reorder bool) string {
		var injs []faultInjection
		if reorder {
			injs = append(injs, faultInjection{Rank: 0, Kind: ReorderPublish, N: 1})
		}
		_, _, w, r := injectorFS(t, pfs.Commit, injs...)
		h, _, err := w.Open("/f", pfs.OCreat|pfs.OWronly, 1)
		if err != nil {
			t.Fatal(err)
		}
		write(t, h, 0, []byte("AAAA"), 2)
		write(t, h, 0, []byte("BBBB"), 3)
		if _, err := h.Commit(4); err != nil {
			t.Fatal(err)
		}
		return string(readAt(t, r, "/f", 4, 10))
	}
	if got := run(false); got != "BBBB" {
		t.Fatalf("in-order publish read %q, want BBBB", got)
	}
	if got := run(true); got != "AAAA" {
		t.Fatalf("reordered publish read %q, want AAAA", got)
	}
}

func TestTransientErrorRetriesThenSucceeds(t *testing.T) {
	// Default policy allows 3 retries; 2 failing attempts succeed on retry.
	fs, inj, w, r := injectorFS(t, pfs.Strong, faultInjection{Rank: 0, Kind: TransientError, N: 1, Arg: 2})
	h, _, err := w.Open("/f", pfs.OCreat|pfs.OWronly, 1)
	if err != nil {
		t.Fatal(err)
	}
	write(t, h, 0, []byte("DATA"), 2)
	if got := readAt(t, r, "/f", 4, 10); string(got) != "DATA" {
		t.Fatalf("retried write lost: %q", got)
	}
	if st := fs.Stats(); st.Retries == 0 || st.TransientErrors != 0 {
		t.Fatalf("stats = %+v, want retries > 0 and no exhausted errors", st)
	}
	if inj.firedCount() != 1 {
		t.Fatalf("fired = %d", inj.firedCount())
	}
}

func TestTransientErrorExhaustsRetries(t *testing.T) {
	// 10 failing attempts exceed the default 3-retry budget.
	fs, _, w, _ := injectorFS(t, pfs.Strong, faultInjection{Rank: 0, Kind: TransientError, N: 1, Arg: 10})
	h, _, err := w.Open("/f", pfs.OCreat|pfs.OWronly, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write(0, payload.Bytes([]byte("DATA")), 2); !errors.Is(err, pfs.ErrTransient) {
		t.Fatalf("write err = %v, want ErrTransient", err)
	}
	if st := fs.Stats(); st.TransientErrors != 1 {
		t.Fatalf("stats = %+v, want one exhausted transient", st)
	}
}

func TestInjectionTargetsOnlyItsRank(t *testing.T) {
	_, inj, w, other := injectorFS(t, pfs.Strong, faultInjection{Rank: 1, Kind: TornWrite, N: 1, Arg: 1})
	h, _, err := w.Open("/f", pfs.OCreat|pfs.OWronly, 1)
	if err != nil {
		t.Fatal(err)
	}
	write(t, h, 0, []byte("ABCD"), 2)
	if got := readAt(t, other, "/f", 4, 10); string(got) != "ABCD" {
		t.Fatalf("rank-0 write perturbed by rank-1 injection: %q", got)
	}
	if inj.firedCount() != 0 {
		t.Fatalf("fired = %d for the wrong rank", inj.firedCount())
	}
}

func TestEventLogStableAcrossIdenticalRuns(t *testing.T) {
	sched := generate(7, genOptions{Ranks: 2, Kinds: []Kind{TornWrite, TransientError}})
	run := func() string {
		inj := newFaultInjector(sched)
		fs := pfs.New(pfs.Options{Semantics: pfs.Strong})
		fs.SetInjector(inj)
		for rank := 0; rank < 2; rank++ {
			c := fs.NewClient(rank)
			h, _, err := c.Open("/shared", pfs.OCreat|pfs.ORdwr, 1)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 8; k++ {
				h.Write(int64(k*16), payload.Bytes([]byte("0123456789abcdef")), uint64(2+k))
				h.Read(0, 16, uint64(3+k))
			}
			if _, err := h.Close(20); err != nil {
				t.Fatal(err)
			}
		}
		return inj.eventLog()
	}
	a, b := run(), run()
	if a != b || a == "" {
		t.Fatalf("event logs differ or empty:\n%s\nvs\n%s", a, b)
	}
}

func TestKindTalliesScheduledFiredSuppressed(t *testing.T) {
	// Two torn writes armed on rank 0: the first (N=1) fires on the first
	// write, the second (N=99) targets an operation the rank never reaches
	// and stays suppressed.
	_, inj, w, _ := injectorFS(t, pfs.Strong,
		faultInjection{Rank: 0, Kind: TornWrite, N: 1, Arg: 4},
		faultInjection{Rank: 0, Kind: TornWrite, N: 99, Arg: 4})
	h, _, err := w.Open("/f", pfs.OCreat|pfs.OWronly, 1)
	if err != nil {
		t.Fatal(err)
	}
	write(t, h, 0, []byte("ABCDEFGH"), 2)
	if _, err := h.Close(3); err != nil {
		t.Fatal(err)
	}

	tallies := inj.kindTallies()
	if len(tallies) != int(numKinds) {
		t.Fatalf("KindTallies covers %d kinds, want %d", len(tallies), numKinds)
	}
	for i, tl := range tallies {
		if tl.Kind != Kind(i) {
			t.Fatalf("tallies out of taxonomy order at %d: %v", i, tl.Kind)
		}
		if tl.Kind == TornWrite {
			continue
		}
		if tl.Scheduled != 0 || tl.Fired != 0 {
			t.Fatalf("unexpected tally for %v: %+v", tl.Kind, tl)
		}
	}
	torn := tallies[TornWrite]
	if torn.Scheduled != 2 || torn.Fired != 1 || torn.suppressed() != 1 {
		t.Fatalf("torn-write tally wrong: %+v (suppressed %d)", torn, torn.suppressed())
	}
}

func TestKindSummaryAggregatesAndRenders(t *testing.T) {
	rep := &Report{Cells: []Cell{
		{App: "a", Tallies: []KindTally{{Kind: TornWrite, Scheduled: 3, Fired: 1}}},
		{App: "b", Tallies: []KindTally{
			{Kind: TornWrite, Scheduled: 2, Fired: 2},
			{Kind: LostFsync, Scheduled: 1, Fired: 0},
		}},
		{App: "c"}, // failed cell: no tallies
	}}
	sum := rep.kindSummary()
	if len(sum) != int(numKinds) {
		t.Fatalf("summary covers %d kinds, want %d", len(sum), numKinds)
	}
	torn := sum[TornWrite]
	if torn.Scheduled != 5 || torn.Fired != 3 || torn.suppressed() != 2 {
		t.Fatalf("aggregated torn-write tally wrong: %+v", torn)
	}
	if fsync := sum[LostFsync]; fsync.Scheduled != 1 || fsync.Fired != 0 {
		t.Fatalf("aggregated lost-fsync tally wrong: %+v", fsync)
	}

	out := RenderSweep(rep)
	for _, want := range []string{"kind", "scheduled", "suppressed", TornWrite.String(), LostFsync.String()} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered sweep missing %q:\n%s", want, out)
		}
	}
}
