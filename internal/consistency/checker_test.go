package consistency

import (
	"strings"
	"testing"

	"repro/internal/payload"
	"repro/internal/pfs"
)

// hist builds hand-crafted histories so each predicate clause can be
// driven in isolation, independent of the pfs implementation.
type hist struct {
	seq uint64
	evs []pfs.HistoryEvent
}

func (h *hist) add(ev pfs.HistoryEvent) *hist {
	h.seq++
	ev.Seq = h.seq
	if ev.Path == "" {
		ev.Path = "/f"
	}
	h.evs = append(h.evs, ev)
	return h
}

func (h *hist) open(rank int, handle uint64, flags int, now uint64) *hist {
	return h.add(pfs.HistoryEvent{Kind: pfs.OpOpen, Rank: rank, Handle: handle, Flags: flags, Now: now})
}
func (h *hist) write(rank int, handle uint64, off int64, data string, now uint64) *hist {
	return h.add(pfs.HistoryEvent{Kind: pfs.OpWrite, Rank: rank, Handle: handle, Off: off,
		Len: int64(len(data)), Data: []byte(data), Now: now})
}

// read records a read that requested n bytes and returned got.
func (h *hist) read(rank int, handle uint64, off, n int64, got string, now uint64) *hist {
	return h.add(pfs.HistoryEvent{Kind: pfs.OpRead, Rank: rank, Handle: handle, Off: off,
		Len: n, Data: []byte(got), Now: now})
}
func (h *hist) commit(rank int, handle uint64, now uint64) *hist {
	return h.add(pfs.HistoryEvent{Kind: pfs.OpCommit, Rank: rank, Handle: handle, Now: now})
}
func (h *hist) close(rank int, handle uint64, now uint64) *hist {
	return h.add(pfs.HistoryEvent{Kind: pfs.OpClose, Rank: rank, Handle: handle, Now: now})
}
func (h *hist) laminate(rank int, handle uint64, now uint64) *hist {
	return h.add(pfs.HistoryEvent{Kind: pfs.OpLaminate, Rank: rank, Handle: handle, Now: now})
}
func (h *hist) truncate(rank int, handle uint64, length int64) *hist {
	return h.add(pfs.HistoryEvent{Kind: pfs.OpTruncate, Rank: rank, Handle: handle, Off: length})
}

func mustAccept(t *testing.T, model pfs.Semantics, h *hist, opt Options) Result {
	t.Helper()
	res := checkHistory(model, h.evs, opt)
	if !res.OK() {
		t.Fatalf("%v spec rejected a conforming history: %v", model, res.Violation)
	}
	return res
}

func mustReject(t *testing.T, model pfs.Semantics, h *hist, opt Options, clause string) *Violation {
	t.Helper()
	res := checkHistory(model, h.evs, opt)
	if res.OK() {
		t.Fatalf("%v spec accepted a violating history (want clause %s)", model, clause)
	}
	if res.Violation.Clause != clause {
		t.Fatalf("%v spec rejected with clause %s, want %s (%v)",
			model, res.Violation.Clause, clause, res.Violation)
	}
	if res.Violation.Read.Kind != pfs.OpRead {
		t.Fatalf("violation anchored to %v, want a read", res.Violation.Read.Kind)
	}
	return res.Violation
}

func TestCheckerStrongAccepts(t *testing.T) {
	h := new(hist).
		open(0, 1, pfs.OCreat|pfs.ORdwr, 10).
		open(1, 2, pfs.ORdwr, 20).
		write(0, 1, 0, "abc", 30).
		read(1, 2, 0, 3, "abc", 40).
		read(1, 2, 1, 64, "bc", 50). // length clamped to visible EOF
		read(1, 2, 100, 8, "", 60)   // past EOF: empty
	res := mustAccept(t, pfs.Strong, h, Options{})
	if res.Reads != 3 || res.Events != 6 {
		t.Fatalf("Reads=%d Events=%d, want 3 and 6", res.Reads, res.Events)
	}
}

func TestCheckerStrongRejectsStaleValue(t *testing.T) {
	h := new(hist).
		open(0, 1, pfs.OCreat|pfs.ORdwr, 10).
		open(1, 2, pfs.ORdwr, 20).
		write(0, 1, 0, "aaa", 30).
		write(0, 1, 0, "bbb", 40).
		read(1, 2, 0, 3, "aaa", 50) // lost update: must see the newest write
	v := mustReject(t, pfs.Strong, h, Options{}, "strong-read-latest")
	if v.Write == nil || v.Write.Seq != 4 {
		t.Fatalf("counterexample write = %+v, want the second write (seq 4)", v.Write)
	}
	if v.Offset != 0 {
		t.Fatalf("violating byte offset = %d, want 0", v.Offset)
	}
}

func TestCheckerStrongRejectsShortRead(t *testing.T) {
	h := new(hist).
		open(0, 1, pfs.OCreat|pfs.ORdwr, 10).
		open(1, 2, pfs.ORdwr, 20).
		write(0, 1, 0, "abc", 30).
		read(1, 2, 0, 3, "", 40) // hidden write: strong mandates visibility
	v := mustReject(t, pfs.Strong, h, Options{}, "strong-read-latest")
	if v.Write == nil || v.Write.Kind != pfs.OpWrite {
		t.Fatalf("counterexample should name the hidden write, got %+v", v.Write)
	}
	if v.Offset != -1 {
		t.Fatalf("length violations carry offset -1, got %d", v.Offset)
	}
}

func TestCheckerCommit(t *testing.T) {
	// Before the commit the write is buffered: an empty read is correct,
	// observing the buffer is an isolation violation.
	pre := func() *hist {
		return new(hist).
			open(0, 1, pfs.OCreat|pfs.ORdwr, 10).
			open(1, 2, pfs.ORdwr, 20).
			write(0, 1, 0, "abc", 30)
	}
	mustAccept(t, pfs.Commit, pre().read(1, 2, 0, 3, "", 40), Options{})
	mustReject(t, pfs.Commit, pre().read(1, 2, 0, 3, "abc", 40), Options{}, "commit-isolation")
	// After the commit the write must be visible.
	mustAccept(t, pfs.Commit, pre().commit(0, 1, 40).read(1, 2, 0, 3, "abc", 50), Options{})
	mustReject(t, pfs.Commit, pre().commit(0, 1, 40).read(1, 2, 0, 3, "", 50),
		Options{}, "commit-visibility")
	// A dropped commit (recorded as failed) publishes nothing.
	dropped := pre()
	dropped.add(pfs.HistoryEvent{Kind: pfs.OpCommit, Rank: 0, Handle: 1, Now: 40,
		Err: "fault: dropped commit"})
	mustAccept(t, pfs.Commit, dropped.read(1, 2, 0, 3, "", 50), Options{})
}

func TestCheckerCommitIsolationNamesLeakedWrite(t *testing.T) {
	// Rank 1 owns published data; rank 0's uncommitted write leaks into a
	// read over the same range — the per-byte path must name the leaked
	// write, not just the length bound.
	h := new(hist).
		open(1, 2, pfs.OCreat|pfs.ORdwr, 10).
		write(1, 2, 0, "zzz", 20).
		commit(1, 2, 30).
		open(0, 1, pfs.ORdwr, 40).
		write(0, 1, 0, "abc", 50).
		read(1, 2, 0, 3, "abc", 60)
	v := mustReject(t, pfs.Commit, h, Options{}, "commit-isolation")
	if v.Write == nil || v.Write.Rank != 0 || v.Write.Kind != pfs.OpWrite {
		t.Fatalf("counterexample should name rank 0's uncommitted write, got %+v", v.Write)
	}
}

func TestCheckerSession(t *testing.T) {
	// Rank 1 opens before rank 0's close: the writes published by that
	// close are outside rank 1's session snapshot.
	pre := func() *hist {
		return new(hist).
			open(0, 1, pfs.OCreat|pfs.ORdwr, 10).
			open(1, 2, pfs.ORdwr, 20).
			write(0, 1, 0, "abc", 30).
			close(0, 1, 40)
	}
	mustAccept(t, pfs.Session, pre().read(1, 2, 0, 3, "", 50), Options{})
	mustReject(t, pfs.Session, pre().read(1, 2, 0, 3, "abc", 50), Options{}, "session-isolation")
	// After reopening (a fresh session) the close-to-open discipline makes
	// the data mandatory.
	reopened := func() *hist { return pre().close(1, 2, 50).open(1, 3, pfs.ORdwr, 60) }
	mustAccept(t, pfs.Session, reopened().read(1, 3, 0, 3, "abc", 70), Options{})
	mustReject(t, pfs.Session, reopened().read(1, 3, 0, 3, "", 70), Options{}, "session-visibility")
}

func TestCheckerEventual(t *testing.T) {
	opt := Options{EventualDelayNS: 100}
	pre := func() *hist {
		return new(hist).
			open(0, 1, pfs.OCreat|pfs.ORdwr, 10).
			open(1, 2, pfs.ORdwr, 10).
			write(0, 1, 0, "abc", 20)
	}
	// Within the staleness bound both views are legal; past it the write
	// is mandatory.
	mustAccept(t, pfs.Eventual, pre().read(1, 2, 0, 3, "", 50), opt)
	mustAccept(t, pfs.Eventual, pre().read(1, 2, 0, 3, "abc", 50), opt)
	mustReject(t, pfs.Eventual, pre().read(1, 2, 0, 3, "", 200), opt, "eventual-bounded-staleness")
	// Own writes are visible immediately (per-process ordering).
	mustReject(t, pfs.Eventual, pre().read(0, 1, 0, 3, "", 30), opt, "eventual-bounded-staleness")
	// Early propagation may expose either of two remote writes, but never
	// a value nobody wrote.
	two := pre().write(0, 1, 0, "xyz", 30)
	mustAccept(t, pfs.Eventual, two.read(1, 2, 0, 3, "abc", 50), opt)
	mustAccept(t, pfs.Eventual, pre().write(0, 1, 0, "xyz", 30).read(1, 2, 0, 3, "xyz", 50), opt)
	mustReject(t, pfs.Eventual, pre().write(0, 1, 0, "xyz", 30).read(1, 2, 0, 3, "qqq", 50),
		opt, "unexplained-value")
}

func TestCheckerReadYourWrites(t *testing.T) {
	h := new(hist).
		open(0, 1, pfs.OCreat|pfs.ORdwr, 10).
		write(0, 1, 0, "abc", 20).
		read(0, 1, 0, 3, "abz", 30) // own buffered write misread
	v := mustReject(t, pfs.Commit, h, Options{}, "po-read-your-writes")
	if v.Offset != 2 {
		t.Fatalf("violating byte = %d, want 2", v.Offset)
	}
	if v.Write == nil || v.Write.Kind != pfs.OpWrite {
		t.Fatalf("counterexample should name the buffered write, got %+v", v.Write)
	}
}

func TestCheckerUnexplainedValue(t *testing.T) {
	// A hole inside the visible size must read as zeros.
	h := new(hist).
		open(0, 1, pfs.OCreat|pfs.ORdwr, 10).
		write(0, 1, 10, "abc", 20).
		read(0, 1, 0, 5, "qqqqq", 30)
	v := mustReject(t, pfs.Strong, h, Options{}, "unexplained-value")
	if v.Offset != 0 {
		t.Fatalf("violating byte = %d, want 0", v.Offset)
	}
}

func TestCheckerMalformedHistory(t *testing.T) {
	h := new(hist).read(1, 99, 0, 3, "", 10)
	res := checkHistory(pfs.Strong, h.evs, Options{})
	if res.OK() || res.Violation.Clause != "history-malformed" {
		t.Fatalf("read without open should be malformed, got %v", res.Violation)
	}
}

func TestCheckerSkipsFailedOps(t *testing.T) {
	h := new(hist).
		open(0, 1, pfs.OCreat|pfs.ORdwr, 10)
	h.add(pfs.HistoryEvent{Kind: pfs.OpWrite, Rank: 0, Handle: 1, Off: 0, Len: 3,
		Now: 20, Err: "pfs: transient I/O error (retries exhausted)"})
	mustAccept(t, pfs.Strong, h.read(0, 1, 0, 3, "", 30), Options{})
}

func TestCheckerTruncate(t *testing.T) {
	pre := func() *hist {
		return new(hist).
			open(0, 1, pfs.OCreat|pfs.ORdwr, 10).
			open(1, 2, pfs.ORdwr, 20).
			write(0, 1, 0, "abcdef", 30).
			truncate(1, 2, 3) // truncation is global, any rank's handle
	}
	mustAccept(t, pfs.Strong, pre().read(1, 2, 0, 6, "abc", 40), Options{})
	// Data past the cut must be gone.
	mustReject(t, pfs.Strong, pre().read(1, 2, 0, 6, "abcdef", 40), Options{}, "strong-read-latest")
}

func TestCheckerTruncatePreservesRemotePending(t *testing.T) {
	// Under commit semantics, truncation clips only the caller's buffer:
	// rank 0's pending write survives in full and republishes past the cut.
	h := new(hist).
		open(0, 1, pfs.OCreat|pfs.ORdwr, 10).
		open(1, 2, pfs.ORdwr, 20).
		write(0, 1, 0, "abcdef", 30).
		truncate(1, 2, 2).
		commit(0, 1, 40).
		read(1, 2, 0, 6, "abcdef", 50)
	mustAccept(t, pfs.Commit, h, Options{})
}

func TestCheckerLaminateGloballyVisible(t *testing.T) {
	// Session model, reader opened before the writer laminated: lamination
	// overrides the session snapshot.
	pre := func() *hist {
		return new(hist).
			open(0, 1, pfs.OCreat|pfs.ORdwr, 10).
			open(1, 2, pfs.ORdwr, 20).
			write(0, 1, 0, "abc", 30).
			laminate(0, 1, 40)
	}
	mustAccept(t, pfs.Session, pre().read(1, 2, 0, 3, "abc", 50), Options{})
	mustReject(t, pfs.Session, pre().read(1, 2, 0, 3, "", 50), Options{}, "session-visibility")
}

func TestCheckerOTruncOpen(t *testing.T) {
	// An O_TRUNC open clears published data and the opener's own buffer.
	h := new(hist).
		open(0, 1, pfs.OCreat|pfs.ORdwr, 10).
		write(0, 1, 0, "abc", 20).
		commit(0, 1, 30).
		open(1, 2, pfs.ORdwr|pfs.OTrunc, 40)
	mustAccept(t, pfs.Commit, h.read(1, 2, 0, 3, "", 50), Options{})
	h2 := new(hist).
		open(0, 1, pfs.OCreat|pfs.ORdwr, 10).
		write(0, 1, 0, "abc", 20).
		commit(0, 1, 30).
		open(1, 2, pfs.ORdwr|pfs.OTrunc, 40).
		read(1, 2, 0, 3, "abc", 50)
	// Observing truncated-away data overruns the admissible length bound —
	// an isolation violation, not a missed write.
	mustReject(t, pfs.Commit, h2, Options{}, "commit-isolation")
}

func TestViolationString(t *testing.T) {
	h := new(hist).
		open(0, 1, pfs.OCreat|pfs.ORdwr, 10).
		open(1, 2, pfs.ORdwr, 20).
		write(0, 1, 0, "aaa", 30).
		write(0, 1, 0, "bbb", 40).
		read(1, 2, 0, 3, "aaa", 50)
	res := checkHistory(pfs.Strong, h.evs, Options{})
	s := res.Violation.String()
	for _, want := range []string{"strong-read-latest", "read #5", "rank 1", "at byte 0"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Violation.String() = %q, missing %q", s, want)
		}
	}
	if (*Violation)(nil).String() != "<accepted>" {
		t.Fatalf("nil violation should render <accepted>")
	}
}

// TestCheckLogEndToEnd exercises the real recording pipeline: a pfs run
// with a Log attached, checked by CheckLog.
func TestCheckLogEndToEnd(t *testing.T) {
	fs := pfs.New(pfs.Options{Semantics: pfs.Commit})
	log := NewLog()
	fs.SetHistoryRecorder(log)
	w := fs.NewClient(0)
	r := fs.NewClient(1)
	hw, _, err := w.Open("/f", pfs.OCreat|pfs.OWronly, 10)
	if err != nil {
		t.Fatal(err)
	}
	hr, _, err := r.Open("/f", pfs.ORdonly, 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hw.Write(0, payload.Bytes([]byte("hello")), 30); err != nil {
		t.Fatal(err)
	}
	if _, err := hw.Commit(40); err != nil {
		t.Fatal(err)
	}
	if _, _, err := hr.Read(0, 5, 50); err != nil {
		t.Fatal(err)
	}
	if log.Len() != 5 {
		t.Fatalf("recorded %d events, want 5", log.Len())
	}
	res := CheckLog(pfs.Commit, log, Options{})
	if !res.OK() {
		t.Fatalf("conforming pfs run rejected: %v", res.Violation)
	}
	if res.Reads != 1 || res.Bytes != 5 {
		t.Fatalf("Reads=%d Bytes=%d, want 1 and 5", res.Reads, res.Bytes)
	}
	log.Reset()
	if log.Len() != 0 {
		t.Fatalf("Reset left %d events", log.Len())
	}
}
