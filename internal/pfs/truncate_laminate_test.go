package pfs

// Edge cases of the Truncate/Laminate interaction: truncation is an
// immediate global metadata operation, lamination a publish-and-freeze —
// their ordering relative to buffered (pending) writes decides what data
// survives under commit/session semantics.

import (
	"bytes"
	"errors"
	"testing"
)

func TestTruncateThenLaminatePublishesClippedPending(t *testing.T) {
	fs := newFS(Commit)
	c := fs.NewClient(0)
	h := mustOpen(t, c, "/f", OCreat|ORdwr, 10)
	writeAll(t, h, 0, []byte("abcdef"), 20)
	// Truncate clips the caller's own buffer before it ever publishes.
	if _, err := h.Truncate(3); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if _, err := h.Laminate(30); err != nil {
		t.Fatalf("laminate: %v", err)
	}
	r := fs.NewClient(1)
	hr := mustOpen(t, r, "/f", ORdonly, 40)
	if got := readAll(t, hr, 0, 10, 50); !bytes.Equal(got, []byte("abc")) {
		t.Fatalf("laminated content = %q, want %q", got, "abc")
	}
}

func TestLaminateThenTruncateRejected(t *testing.T) {
	fs := newFS(Commit)
	c := fs.NewClient(0)
	h := mustOpen(t, c, "/f", OCreat|ORdwr, 10)
	writeAll(t, h, 0, []byte("frozen"), 20)
	if _, err := h.Laminate(30); err != nil {
		t.Fatalf("laminate: %v", err)
	}
	if _, err := h.Truncate(2); !errors.Is(err, ErrLaminated) {
		t.Fatalf("truncate after laminate = %v, want ErrLaminated", err)
	}
	if got := readAll(t, h, 0, 10, 40); !bytes.Equal(got, []byte("frozen")) {
		t.Fatalf("laminated content changed: %q", got)
	}
}

func TestTruncateSparesOtherClientsPending(t *testing.T) {
	// Rank 1 truncates while rank 0 still holds buffered writes past the
	// cut: only published data and the *caller's* buffer are clipped, so
	// rank 0's later commit republishes beyond the truncation point.
	fs := newFS(Commit)
	a := fs.NewClient(0)
	b := fs.NewClient(1)
	ha := mustOpen(t, a, "/f", OCreat|ORdwr, 10)
	hb := mustOpen(t, b, "/f", ORdwr, 20)
	writeAll(t, ha, 0, []byte("abcdef"), 30)
	if _, err := hb.Truncate(2); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if _, err := ha.Commit(40); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if got := readAll(t, hb, 0, 10, 50); !bytes.Equal(got, []byte("abcdef")) {
		t.Fatalf("read after remote commit = %q, want full %q", got, "abcdef")
	}
}

func TestTruncateVisibleImmediatelyInEveryModel(t *testing.T) {
	for _, sem := range AllSemantics() {
		t.Run(sem.String(), func(t *testing.T) {
			fs := newFS(sem)
			w := fs.NewClient(0)
			r := fs.NewClient(1)
			hw := mustOpen(t, w, "/f", OCreat|ORdwr, 10)
			writeAll(t, hw, 0, []byte("abcdef"), 20)
			if _, err := hw.Commit(30); err != nil {
				t.Fatalf("commit: %v", err)
			}
			if _, err := hw.Close(40); err != nil {
				t.Fatalf("close: %v", err)
			}
			// Reader's session starts after the close, so the data is
			// published and visible under every model...
			hr := mustOpen(t, r, "/f", ORdonly, 1_000_000_000)
			if got := readAll(t, hr, 0, 10, 1_000_000_000); !bytes.Equal(got, []byte("abcdef")) {
				t.Fatalf("pre-truncate read = %q", got)
			}
			// ...and the truncation through a fresh writer handle clips it
			// for the *existing* reader session at once — no commit, close,
			// or delay required (metadata path).
			hw2 := mustOpen(t, w, "/f", OWronly, 1_000_000_010)
			if _, err := hw2.Truncate(2); err != nil {
				t.Fatalf("truncate: %v", err)
			}
			if got := readAll(t, hr, 0, 10, 1_000_000_020); !bytes.Equal(got, []byte("ab")) {
				t.Fatalf("%v: post-truncate read = %q, want %q", sem, got, "ab")
			}
		})
	}
}

func TestTruncateExtendDoesNotMaterializeData(t *testing.T) {
	fs := newFS(Strong)
	c := fs.NewClient(0)
	h := mustOpen(t, c, "/f", OCreat|ORdwr, 10)
	writeAll(t, h, 0, []byte("abc"), 20)
	if _, err := h.Truncate(100); err != nil {
		t.Fatalf("truncate extend: %v", err)
	}
	// Stat reflects the extended length; reads still stop at the last
	// extent (the extension is all hole, and holes past the data are not
	// served).
	info, _, err := fs.Stat("/f")
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if info.Size != 100 {
		t.Fatalf("size after extend = %d, want 100", info.Size)
	}
	if got := readAll(t, h, 0, 200, 30); !bytes.Equal(got, []byte("abc")) {
		t.Fatalf("read after extend = %q, want %q", got, "abc")
	}
}

func TestOTruncOpenSparesOtherClientsPending(t *testing.T) {
	// O_TRUNC discards published data and the *opener's* buffer; another
	// client's buffered writes survive and publish in full on close.
	fs := newFS(Session)
	a := fs.NewClient(0)
	b := fs.NewClient(1)
	ha := mustOpen(t, a, "/f", OCreat|ORdwr, 10)
	writeAll(t, ha, 0, []byte("survives"), 20)
	hb := mustOpen(t, b, "/f", ORdwr|OTrunc, 30)
	writeAll(t, hb, 0, []byte("gone"), 40)
	hb2 := mustOpen(t, b, "/f", ORdwr|OTrunc, 50) // b's own buffer is dropped
	if _, err := ha.Close(60); err != nil {
		t.Fatalf("close a: %v", err)
	}
	if _, err := hb2.Close(70); err != nil {
		t.Fatalf("close b: %v", err)
	}
	r := fs.NewClient(2)
	hr := mustOpen(t, r, "/f", ORdonly, 80)
	if got := readAll(t, hr, 0, 20, 90); !bytes.Equal(got, []byte("survives")) {
		t.Fatalf("read = %q, want %q", got, "survives")
	}
}

func TestLaminateOverridesSessionSnapshotAfterTruncate(t *testing.T) {
	// A session reader whose snapshot predates both the truncate and the
	// lamination sees the final laminated content: truncation applies
	// immediately and lamination overrides the open-time snapshot.
	fs := newFS(Session)
	w := fs.NewClient(0)
	r := fs.NewClient(1)
	hw := mustOpen(t, w, "/f", OCreat|ORdwr, 10)
	writeAll(t, hw, 0, []byte("aaaa"), 20)
	if _, err := hw.Close(30); err != nil {
		t.Fatalf("close: %v", err)
	}
	hw = mustOpen(t, w, "/f", ORdwr, 40)
	hr := mustOpen(t, r, "/f", ORdonly, 50) // snapshot: "aaaa"
	if _, err := hw.Truncate(2); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	writeAll(t, hw, 4, []byte("bbbb"), 60) // buffered after the cut
	if _, err := hw.Laminate(70); err != nil {
		t.Fatalf("laminate: %v", err)
	}
	want := append([]byte("aa"), 0, 0, 'b', 'b', 'b', 'b')
	if got := readAll(t, hr, 0, 20, 80); !bytes.Equal(got, want) {
		t.Fatalf("pre-existing session read = %q, want %q", got, want)
	}
}

// TestExtendingTruncateVisibleSizeMatchesRead: after a truncate past the
// last written byte, VisibleSize (what O_APPEND and SEEK_END resolve
// against) must equal what a read returns, under every model.
func TestExtendingTruncateVisibleSizeMatchesRead(t *testing.T) {
	for _, sem := range AllSemantics() {
		t.Run(sem.String(), func(t *testing.T) {
			fs := newFS(sem)
			c := fs.NewClient(0)
			h := mustOpen(t, c, "/f", OCreat|ORdwr, 10)
			writeAll(t, h, 0, []byte("0123456789"), 20)
			if _, err := h.Commit(30); err != nil {
				t.Fatalf("commit: %v", err)
			}
			if _, err := h.Close(40); err != nil {
				t.Fatalf("close: %v", err)
			}
			h = mustOpen(t, c, "/f", ORdwr, 50)
			if _, err := h.Truncate(100); err != nil {
				t.Fatalf("truncate: %v", err)
			}
			got := readAll(t, h, 0, 100, 60)
			if size := h.VisibleSize(60); size != int64(len(got)) || size != 10 {
				t.Fatalf("VisibleSize = %d, read returned %d bytes; want both 10", size, len(got))
			}
		})
	}
}
