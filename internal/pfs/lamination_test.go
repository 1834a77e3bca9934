package pfs

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/payload"
)

func TestLaminationPublishesGlobally(t *testing.T) {
	// Even under session semantics, a laminated file is visible to readers
	// whose sessions predate the lamination (UnifyFS §3.2).
	fs := newFS(Session)
	w := fs.NewClient(0)
	r := fs.NewClient(1)
	hw := mustOpen(t, w, "/ckpt", OCreat|OWronly, 10)
	writeAll(t, hw, 0, []byte("final"), 20)
	hr := mustOpen(t, r, "/ckpt", ORdonly, 15) // opened before lamination
	if got := readAll(t, hr, 0, 5, 25); len(got) != 0 {
		t.Fatalf("pending data leaked before lamination: %q", got)
	}
	if _, err := hw.Laminate(30); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, hr, 0, 5, 40); !bytes.Equal(got, []byte("final")) {
		t.Fatalf("laminated data not globally visible: %q", got)
	}
}

func TestLaminationMakesFileReadOnly(t *testing.T) {
	fs := newFS(Commit)
	c := fs.NewClient(0)
	h := mustOpen(t, c, "/f", OCreat|ORdwr, 1)
	writeAll(t, h, 0, []byte("x"), 10)
	if _, err := h.Laminate(20); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write(0, payload.Bytes([]byte("y")), 30); !errors.Is(err, ErrLaminated) {
		t.Fatalf("write after lamination: %v", err)
	}
	if _, err := h.Truncate(0); !errors.Is(err, ErrLaminated) {
		t.Fatalf("truncate after lamination: %v", err)
	}
	if _, _, err := c.Open("/f", OWronly|OTrunc, 40); !errors.Is(err, ErrLaminated) {
		t.Fatalf("O_TRUNC open after lamination: %v", err)
	}
	// Reads still work.
	if got := readAll(t, h, 0, 1, 50); !bytes.Equal(got, []byte("x")) {
		t.Fatalf("read after lamination: %q", got)
	}
}

func TestLaminateClosedHandle(t *testing.T) {
	fs := newFS(Commit)
	c := fs.NewClient(0)
	h := mustOpen(t, c, "/f", OCreat|OWronly, 1)
	if _, err := h.Close(10); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Laminate(20); !errors.Is(err, errClosed) {
		t.Fatalf("laminate on closed handle: %v", err)
	}
}

func TestUnorderedSameProcessQuirk(t *testing.T) {
	// BurstFS (§3.5): a read following two same-process overlapping writes
	// may return either value. Our model returns the older one, so a
	// header-rewrite protocol reads stale data.
	fs := New(Options{Semantics: Commit, UnorderedSameProcess: true})
	c := fs.NewClient(0)
	h := mustOpen(t, c, "/f", OCreat|ORdwr, 1)
	writeAll(t, h, 0, []byte("old!"), 10)
	writeAll(t, h, 0, []byte("new!"), 20)
	got := readAll(t, h, 0, 4, 30)
	if bytes.Equal(got, []byte("new!")) {
		t.Fatalf("quirk did not surface: read %q", got)
	}
	if !bytes.Equal(got, []byte("old!")) {
		t.Fatalf("unexpected content %q", got)
	}
	// Disjoint writes remain correct even with the quirk.
	writeAll(t, h, 10, []byte("AA"), 40)
	writeAll(t, h, 20, []byte("BB"), 50)
	if got := readAll(t, h, 10, 2, 60); !bytes.Equal(got, []byte("AA")) {
		t.Fatalf("disjoint write corrupted: %q", got)
	}
	// After a commit the published order is authoritative again.
	if _, err := h.Commit(70); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, h, 0, 4, 80); !bytes.Equal(got, []byte("new!")) {
		t.Fatalf("published read wrong: %q", got)
	}
}
