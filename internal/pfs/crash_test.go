package pfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/payload"
)

// Failure injection: a process dying before its commit loses exactly the
// data the relaxed models buffer — the durability consequence of commit
// semantics that motivates fsync-per-checkpoint protocols. Under strong
// semantics (publish-on-write) the same crash loses nothing.

func TestCrashLosesUncommittedWrites(t *testing.T) {
	fs := newFS(Commit)
	w := fs.NewClient(0)
	r := fs.NewClient(1)
	h := mustOpen(t, w, "/ckpt", OCreat|OWronly, 10)
	writeAll(t, h, 0, []byte("saved"), 20)
	if _, err := h.Commit(30); err != nil { // fsync: first half durable
		t.Fatal(err)
	}
	writeAll(t, h, 5, []byte("-lost"), 40) // never committed
	w.Crash()

	hr := mustOpen(t, r, "/ckpt", ORdonly, 50)
	got := readAll(t, hr, 0, 10, 60)
	if !bytes.Equal(got, []byte("saved")) {
		t.Fatalf("post-crash content = %q, want only the committed prefix", got)
	}
	// The crashed client's handles are dead.
	if _, err := h.Write(0, payload.Bytes([]byte("x")), 70); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write after crash: %v", err)
	}
	if !w.Crashed() {
		t.Fatal("Crashed() false")
	}
}

func TestCrashUnderStrongLosesNothing(t *testing.T) {
	fs := newFS(Strong)
	w := fs.NewClient(0)
	r := fs.NewClient(1)
	h := mustOpen(t, w, "/ckpt", OCreat|OWronly, 10)
	writeAll(t, h, 0, []byte("published"), 20)
	w.Crash() // publish-on-write: nothing pending to lose
	hr := mustOpen(t, r, "/ckpt", ORdonly, 30)
	if got := readAll(t, hr, 0, 9, 40); !bytes.Equal(got, []byte("published")) {
		t.Fatalf("strong semantics lost data at crash: %q", got)
	}
}

func TestCrashUnderSessionLosesWholeOpenSession(t *testing.T) {
	fs := newFS(Session)
	w := fs.NewClient(0)
	r := fs.NewClient(1)
	h := mustOpen(t, w, "/ckpt", OCreat|OWronly, 10)
	writeAll(t, h, 0, []byte("everything"), 20)
	// fsync does not publish under session semantics — the whole session's
	// data is gone if the process dies before close.
	if _, err := h.Commit(30); err != nil {
		t.Fatal(err)
	}
	w.Crash()
	hr := mustOpen(t, r, "/ckpt", ORdonly, 40)
	if got := readAll(t, hr, 0, 10, 50); len(got) != 0 {
		t.Fatalf("session semantics surfaced uncloseable data after crash: %q", got)
	}
}

// TestCrashedClientCannotTruncateOrLaminate: a dead process can no more
// shrink or laminate a file than write it. Both calls fail with ErrCrashed,
// leave the file's size, content and lamination as they were, and record
// the failed attempt in the op history.
func TestCrashedClientCannotTruncateOrLaminate(t *testing.T) {
	fs := newFS(Strong)
	var hist historyLog
	fs.SetHistoryRecorder(&hist)
	w := fs.NewClient(0)
	h := mustOpen(t, w, "/ckpt", OCreat|OWronly, 10)
	writeAll(t, h, 0, []byte("published"), 20)
	w.Crash()

	if _, err := h.Truncate(2); !errors.Is(err, ErrCrashed) {
		t.Errorf("truncate after crash: %v, want ErrCrashed", err)
	}
	if _, err := h.Laminate(30); !errors.Is(err, ErrCrashed) {
		t.Errorf("laminate after crash: %v, want ErrCrashed", err)
	}
	for i, kind := range []OpKind{OpTruncate, OpLaminate} {
		ev := hist[len(hist)-2+i]
		if ev.Kind != kind || ev.Err != ErrCrashed.Error() {
			t.Errorf("history event %d = %v %q, want a failed %v", len(hist)-2+i, ev.Kind, ev.Err, kind)
		}
	}

	if fi, _, err := fs.Stat("/ckpt"); err != nil || fi.Size != 9 {
		t.Errorf("size after crashed truncate = %d (%v), want 9", fi.Size, err)
	}
	r := fs.NewClient(1)
	hr := mustOpen(t, r, "/ckpt", ORdwr, 40)
	if got := readAll(t, hr, 0, 9, 50); !bytes.Equal(got, []byte("published")) {
		t.Errorf("content after crashed truncate = %q, want %q", got, "published")
	}
	// Not laminated: a live client can still write it.
	if _, err := hr.Write(0, payload.Bytes([]byte("P")), 60); err != nil {
		t.Errorf("write after crashed laminate: %v, want the file still writable", err)
	}
}

// TestCrashedClientCannotOpen: a dead process cannot open, create or
// truncate a file either. Open fails with ErrCrashed and records the
// failed attempt, and the file's size, content and the file set are as
// they were.
func TestCrashedClientCannotOpen(t *testing.T) {
	fs := newFS(Strong)
	var hist historyLog
	fs.SetHistoryRecorder(&hist)
	w := fs.NewClient(0)
	h := mustOpen(t, w, "/ckpt", OCreat|OWronly, 10)
	writeAll(t, h, 0, []byte("published"), 20)
	w.Crash()

	for _, path := range []string{"/ckpt", "/new"} {
		if _, _, err := w.Open(path, OCreat|OTrunc|ORdwr, 30); !errors.Is(err, ErrCrashed) {
			t.Errorf("open %s after crash: %v, want ErrCrashed", path, err)
		}
		if ev := hist[len(hist)-1]; ev.Kind != OpOpen || ev.Path != path || ev.Err != ErrCrashed.Error() {
			t.Errorf("last history event = %v %s %q, want a failed open of %s", ev.Kind, ev.Path, ev.Err, path)
		}
	}
	if _, _, err := fs.Stat("/new"); err != errNotExist {
		t.Errorf("stat /new after a crashed create: %v, want errNotExist", err)
	}
	if fi, _, err := fs.Stat("/ckpt"); err != nil || fi.Size != 9 {
		t.Errorf("size after crashed open = %d (%v), want 9", fi.Size, err)
	}
	hr := mustOpen(t, fs.NewClient(1), "/ckpt", ORdonly, 40)
	if got := readAll(t, hr, 0, 9, 50); !bytes.Equal(got, []byte("published")) {
		t.Errorf("content after crashed open = %q, want %q", got, "published")
	}
}

func TestCrashDoesNotAffectOtherClients(t *testing.T) {
	fs := newFS(Commit)
	a := fs.NewClient(0)
	b := fs.NewClient(1)
	ha := mustOpen(t, a, "/a", OCreat|OWronly, 10)
	hb := mustOpen(t, b, "/b", OCreat|OWronly, 10)
	writeAll(t, ha, 0, []byte("a"), 20)
	writeAll(t, hb, 0, []byte("b"), 20)
	a.Crash()
	if _, err := hb.Commit(30); err != nil {
		t.Fatal(err)
	}
	r := fs.NewClient(2)
	hr := mustOpen(t, r, "/b", ORdonly, 40)
	if got := readAll(t, hr, 0, 1, 50); !bytes.Equal(got, []byte("b")) {
		t.Fatalf("survivor's data affected by peer crash: %q", got)
	}
}

// TestCrashMatrix drives the full crash-visibility matrix: every crash point
// × every consistency model × both reader-open timings. Each cell asserts
// whether the writer's data survives the crash from that reader's point of
// view — the table is the paper's semantics taxonomy restated as a
// durability contract.
//
// Timeline per cell: writer opens at t=10, writes "DATA" at t=20, reaches
// the crash point at t=30, dies. The early reader already holds the file
// open at t=15; the late reader opens at t=100ms (past the eventual-model
// propagation delay), and both read well after it.
func TestCrashMatrix(t *testing.T) {
	const payload = "DATA"
	const (
		beforeCommit = iota // write buffered, process dies before any fsync
		afterFsync          // fsync completed, process dies before close
		afterClose          // clean close, then the process dies
	)
	pointName := [...]string{"before-commit", "after-fsync", "after-close"}

	// visible[point] for a reader that opens AFTER the crash.
	openAfter := map[Semantics][3]bool{
		Strong:   {true, true, true},   // publish-on-write: a crash loses nothing
		Commit:   {false, true, true},  // exactly the fsynced/closed data survives
		Session:  {false, false, true}, // fsync is not a publish; only close is
		Eventual: {true, true, true},   // published at write, visible after delay
	}
	// visible[point] for a reader that was ALREADY holding the file open.
	openBefore := map[Semantics][3]bool{
		Strong:   {true, true, true},
		Commit:   {false, true, true},   // no read-side filtering once published
		Session:  {false, false, false}, // close-to-open: a stale handle never sees it
		Eventual: {true, true, true},    // visibility is time-based, not open-based
	}

	for _, sem := range []Semantics{Strong, Commit, Session, Eventual} {
		for p := beforeCommit; p <= afterClose; p++ {
			for _, early := range []bool{false, true} {
				timing, want := "open-after", openAfter[sem][p]
				if early {
					timing, want = "open-before", openBefore[sem][p]
				}
				t.Run(fmt.Sprintf("%s/%s/%s", sem, pointName[p], timing), func(t *testing.T) {
					fs := newFS(sem)
					w := fs.NewClient(0)
					r := fs.NewClient(1)
					h := mustOpen(t, w, "/m", OCreat|OWronly, 10)
					var hr *Handle
					if early {
						hr = mustOpen(t, r, "/m", ORdonly, 15)
					}
					writeAll(t, h, 0, []byte(payload), 20)
					switch p {
					case afterFsync:
						if _, err := h.Commit(30); err != nil {
							t.Fatal(err)
						}
					case afterClose:
						if _, err := h.Close(30); err != nil {
							t.Fatal(err)
						}
					}
					w.Crash()
					if !early {
						hr = mustOpen(t, r, "/m", ORdonly, 100_000_000)
					}
					got := readAll(t, hr, 0, int64(len(payload)), 200_000_000)
					if want && !bytes.Equal(got, []byte(payload)) {
						t.Fatalf("read %q, want %q to survive the crash", got, payload)
					}
					if !want && len(got) != 0 {
						t.Fatalf("read %q, want the crash to lose it", got)
					}
				})
			}
		}
	}
}

// TestRejectedCallRecordsOneEvent pins history.go's contract that every
// call produces one HistoryEvent: a call the client rejects (crashed
// client, closed handle, wrong access mode, laminated file) records exactly
// one failed event of its own kind, with the error the caller got.
func TestRejectedCallRecordsOneEvent(t *testing.T) {
	type callFunc func(h *Handle) error
	write := func(h *Handle) error { _, err := h.Write(0, payload.Bytes([]byte("x")), 50); return err }
	read := func(h *Handle) error { _, _, err := h.Read(0, 4, 50); return err }
	commit := func(h *Handle) error { _, err := h.Commit(50); return err }
	closeH := func(h *Handle) error { _, err := h.Close(50); return err }
	laminate := func(h *Handle) error { _, err := h.Laminate(50); return err }
	truncate := func(h *Handle) error { _, err := h.Truncate(1); return err }

	// Each set-up opens /f with flags on a fresh file system that holds 4
	// published bytes, then puts the handle into the rejecting state.
	crashed := func(c *Client, h *Handle) { c.Crash() }
	closed := func(c *Client, h *Handle) { h.Close(30) }
	laminated := func(c *Client, h *Handle) { h.Laminate(30) }
	cases := []struct {
		name  string
		flags int
		setup func(c *Client, h *Handle)
		call  callFunc
		kind  OpKind
		want  error
	}{
		{"crashed/write", ORdwr, crashed, write, OpWrite, ErrCrashed},
		{"crashed/read", ORdwr, crashed, read, OpRead, ErrCrashed},
		{"crashed/commit", ORdwr, crashed, commit, OpCommit, ErrCrashed},
		{"crashed/close", ORdwr, crashed, closeH, OpClose, ErrCrashed},
		{"closed/write", ORdwr, closed, write, OpWrite, errClosed},
		{"closed/read", ORdwr, closed, read, OpRead, errClosed},
		{"closed/commit", ORdwr, closed, commit, OpCommit, errClosed},
		{"closed/close", ORdwr, closed, closeH, OpClose, errClosed},
		{"closed/laminate", ORdwr, closed, laminate, OpLaminate, errClosed},
		{"closed/truncate", ORdwr, closed, truncate, OpTruncate, errClosed},
		{"readonly/write", ORdonly, nil, write, OpWrite, errReadOnly},
		{"writeonly/read", OWronly, nil, read, OpRead, errWriteOnly},
		{"laminated/write", ORdwr, laminated, write, OpWrite, ErrLaminated},
		{"laminated/truncate", ORdwr, laminated, truncate, OpTruncate, ErrLaminated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := newFS(Commit)
			var hist historyLog
			fs.SetHistoryRecorder(&hist)
			c := fs.NewClient(0)
			writeAll(t, mustOpen(t, c, "/f", OCreat|OWronly, 10), 0, []byte("data"), 20)
			h := mustOpen(t, c, "/f", tc.flags, 25)
			if tc.setup != nil {
				tc.setup(c, h)
			}
			before := len(hist)
			if err := tc.call(h); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if got := len(hist) - before; got != 1 {
				t.Fatalf("the rejected call recorded %d events, want 1", got)
			}
			ev := hist[len(hist)-1]
			if ev.Kind != tc.kind || ev.Err != tc.want.Error() || ev.Rank != 0 || ev.Handle != h.id || ev.Path != "/f" {
				t.Errorf("recorded %v rank %d handle %d %s err %q, want a failed %v by rank 0 on handle %d /f with %q",
					ev.Kind, ev.Rank, ev.Handle, ev.Path, ev.Err, tc.kind, h.id, tc.want)
			}
		})
	}
}
