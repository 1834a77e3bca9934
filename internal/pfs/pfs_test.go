package pfs

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/payload"
)

func newFS(sem Semantics) *FileSystem {
	return New(Options{Semantics: sem})
}

func mustOpen(t *testing.T, c *Client, path string, flags int, now uint64) *Handle {
	t.Helper()
	h, _, err := c.Open(path, flags, now)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	return h
}

func writeAll(t *testing.T, h *Handle, off int64, data []byte, now uint64) {
	t.Helper()
	if _, err := h.Write(off, payload.Bytes(data), now); err != nil {
		t.Fatalf("write: %v", err)
	}
}

func readAll(t *testing.T, h *Handle, off, n int64, now uint64) []byte {
	t.Helper()
	data, _, err := h.Read(off, n, now)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return data.Materialize()
}

// mat passes a Read's results through with the payload's bytes.
func mat(data payload.P, cost uint64, err error) ([]byte, uint64, error) {
	return data.Materialize(), cost, err
}

func TestRegistryMatchesTable1(t *testing.T) {
	want := map[string]Semantics{
		"GPFS": Strong, "Lustre": Strong, "GekkoFS": Strong, "BeeGFS": Strong,
		"BatchFS": Strong, "OrangeFS": Strong,
		"BSCFS": Commit, "UnifyFS": Commit, "SymphonyFS": Commit, "BurstFS": Commit,
		"NFS": Session, "AFS": Session, "DDN IME": Session, "Gfarm/BB": Session,
		"PLFS": Eventual, "echofs": Eventual, "MarFS": Eventual,
	}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d systems, want %d", len(reg), len(want))
	}
	for name, sem := range want {
		info, ok := LookupSystem(name)
		if !ok {
			t.Errorf("system %s missing from registry", name)
			continue
		}
		if info.Semantics != sem {
			t.Errorf("%s categorized as %v, want %v", name, info.Semantics, sem)
		}
	}
	if info, _ := LookupSystem("BurstFS"); info.PerProcessOrdering {
		t.Error("BurstFS must be flagged as lacking per-process ordering (§3.5)")
	}
	if _, ok := LookupSystem("NoSuchFS"); ok {
		t.Error("LookupSystem of unknown name should fail")
	}
}

func TestSemanticsOrdering(t *testing.T) {
	if !Session.WeakerThan(Commit) || !Commit.WeakerThan(Strong) || !Eventual.WeakerThan(Session) {
		t.Fatal("semantics strength ordering broken")
	}
	if Strong.WeakerThan(Session) {
		t.Fatal("strong must not be weaker than session")
	}
	if got := len(AllSemantics()); got != 4 {
		t.Fatalf("AllSemantics() has %d entries, want 4", got)
	}
}

func TestStrongReadSeesWrite(t *testing.T) {
	fs := newFS(Strong)
	w := fs.NewClient(0)
	r := fs.NewClient(1)
	hw := mustOpen(t, w, "/f", OCreat|OWronly, 10)
	writeAll(t, hw, 0, []byte("hello"), 20)
	hr := mustOpen(t, r, "/f", ORdonly, 5) // opened before the write
	got := readAll(t, hr, 0, 5, 30)
	if !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("strong read = %q, want %q", got, "hello")
	}
}

func TestCommitVisibilityRequiresCommit(t *testing.T) {
	fs := newFS(Commit)
	w := fs.NewClient(0)
	r := fs.NewClient(1)
	hw := mustOpen(t, w, "/f", OCreat|OWronly, 10)
	writeAll(t, hw, 0, []byte("hello"), 20)
	hr := mustOpen(t, r, "/f", ORdonly, 25)
	if got := readAll(t, hr, 0, 5, 30); len(got) != 0 {
		t.Fatalf("uncommitted write visible to other process: %q", got)
	}
	if _, err := hw.Commit(40); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, hr, 0, 5, 50); !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("committed write not visible: %q", got)
	}
}

func TestCommitCloseActsAsCommit(t *testing.T) {
	fs := newFS(Commit)
	w := fs.NewClient(0)
	r := fs.NewClient(1)
	hw := mustOpen(t, w, "/f", OCreat|OWronly, 10)
	writeAll(t, hw, 0, []byte("data"), 20)
	if _, err := hw.Close(30); err != nil {
		t.Fatal(err)
	}
	hr := mustOpen(t, r, "/f", ORdonly, 25) // opened before the close: commit model doesn't care
	if got := readAll(t, hr, 0, 4, 40); !bytes.Equal(got, []byte("data")) {
		t.Fatalf("close-committed write not visible: %q", got)
	}
}

func TestSessionCloseToOpen(t *testing.T) {
	fs := newFS(Session)
	w := fs.NewClient(0)
	r := fs.NewClient(1)
	hw := mustOpen(t, w, "/f", OCreat|OWronly, 10)
	writeAll(t, hw, 0, []byte("vis"), 20)

	// Reader that opened before the writer's close must NOT see the data,
	// even after the close happens.
	early := mustOpen(t, r, "/f", ORdonly, 15)
	if _, err := hw.Close(30); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, early, 0, 3, 40); len(got) != 0 {
		t.Fatalf("session: pre-close open saw post-close data: %q", got)
	}
	// A fresh open after the close sees it.
	late := mustOpen(t, r, "/f", ORdonly, 50)
	if got := readAll(t, late, 0, 3, 60); !bytes.Equal(got, []byte("vis")) {
		t.Fatalf("session: post-close open missed data: %q", got)
	}
}

func TestSessionFsyncDoesNotPublish(t *testing.T) {
	fs := newFS(Session)
	w := fs.NewClient(0)
	r := fs.NewClient(1)
	hw := mustOpen(t, w, "/f", OCreat|OWronly, 10)
	writeAll(t, hw, 0, []byte("x"), 20)
	if _, err := hw.Commit(30); err != nil { // fsync
		t.Fatal(err)
	}
	hr := mustOpen(t, r, "/f", ORdonly, 40) // opened after the fsync
	if got := readAll(t, hr, 0, 1, 50); len(got) != 0 {
		t.Fatalf("session: fsync alone must not publish, got %q", got)
	}
}

func TestEventualVisibilityAfterDelay(t *testing.T) {
	fs := New(Options{Semantics: Eventual, EventualDelay: 1000})
	w := fs.NewClient(0)
	r := fs.NewClient(1)
	hw := mustOpen(t, w, "/f", OCreat|OWronly, 10)
	writeAll(t, hw, 0, []byte("ev"), 100)
	hr := mustOpen(t, r, "/f", ORdonly, 10)
	if got := readAll(t, hr, 0, 2, 500); len(got) != 0 {
		t.Fatalf("eventual: data visible before delay: %q", got)
	}
	if got := readAll(t, hr, 0, 2, 1101); !bytes.Equal(got, []byte("ev")) {
		t.Fatalf("eventual: data not visible after delay: %q", got)
	}
}

func TestOwnWritesAlwaysVisible(t *testing.T) {
	for _, sem := range AllSemantics() {
		fs := newFS(sem)
		c := fs.NewClient(0)
		h := mustOpen(t, c, "/f", OCreat|ORdwr, 10)
		writeAll(t, h, 0, []byte("aaaa"), 20)
		writeAll(t, h, 2, []byte("bb"), 30)
		got := readAll(t, h, 0, 4, 40)
		if !bytes.Equal(got, []byte("aabb")) {
			t.Errorf("%v: own read-back = %q, want aabb (program order)", sem, got)
		}
	}
}

func TestOverlappingPublishOrder(t *testing.T) {
	// Later published writes overwrite earlier ones.
	fs := newFS(Strong)
	a := fs.NewClient(0)
	b := fs.NewClient(1)
	ha := mustOpen(t, a, "/f", OCreat|ORdwr, 1)
	hb := mustOpen(t, b, "/f", ORdwr, 2)
	writeAll(t, ha, 0, []byte("11111"), 10)
	writeAll(t, hb, 1, []byte("22"), 20)
	got := readAll(t, ha, 0, 5, 30)
	if !bytes.Equal(got, []byte("12211")) {
		t.Fatalf("overlap result = %q, want 12211", got)
	}
}

func TestReadHolesAreZero(t *testing.T) {
	fs := newFS(Strong)
	c := fs.NewClient(0)
	h := mustOpen(t, c, "/f", OCreat|ORdwr, 1)
	writeAll(t, h, 4, []byte("zz"), 10)
	got := readAll(t, h, 0, 6, 20)
	want := []byte{0, 0, 0, 0, 'z', 'z'}
	if !bytes.Equal(got, want) {
		t.Fatalf("hole read = %v, want %v", got, want)
	}
}

func TestReadPastEOF(t *testing.T) {
	fs := newFS(Strong)
	c := fs.NewClient(0)
	h := mustOpen(t, c, "/f", OCreat|ORdwr, 1)
	writeAll(t, h, 0, []byte("abc"), 10)
	if got := readAll(t, h, 0, 100, 20); !bytes.Equal(got, []byte("abc")) {
		t.Fatalf("short read = %q", got)
	}
	if got := readAll(t, h, 10, 5, 30); len(got) != 0 {
		t.Fatalf("read past EOF returned %q", got)
	}
}

func TestOpenTruncDiscards(t *testing.T) {
	fs := newFS(Commit)
	c := fs.NewClient(0)
	h := mustOpen(t, c, "/f", OCreat|ORdwr, 1)
	writeAll(t, h, 0, []byte("old data"), 10)
	if _, err := h.Close(20); err != nil {
		t.Fatal(err)
	}
	h2 := mustOpen(t, c, "/f", ORdwr|OTrunc, 30)
	if got := h2.VisibleSize(30); got != 0 {
		t.Fatalf("size after O_TRUNC = %d, want 0", got)
	}
	if got := readAll(t, h2, 0, 8, 40); len(got) != 0 {
		t.Fatalf("data survived O_TRUNC: %q", got)
	}
}

func TestVisibleSizeAndAppendBase(t *testing.T) {
	fs := newFS(Session)
	w := fs.NewClient(0)
	hw := mustOpen(t, w, "/f", OCreat|OWronly, 1)
	writeAll(t, hw, 0, make([]byte, 100), 10) // pending
	if got := hw.VisibleSize(20); got != 100 {
		t.Fatalf("own pending must count toward visible size: %d", got)
	}
	// Another client sees size 0 before close, 100 after close+reopen.
	r := fs.NewClient(1)
	hr := mustOpen(t, r, "/f", ORdonly, 15)
	if got := hr.VisibleSize(20); got != 0 {
		t.Fatalf("session: other rank sees size %d before close", got)
	}
	if _, err := hw.Close(30); err != nil {
		t.Fatal(err)
	}
	hr2 := mustOpen(t, r, "/f", ORdonly, 40)
	if got := hr2.VisibleSize(40); got != 100 {
		t.Fatalf("session: post-close size %d, want 100", got)
	}
}

func TestTruncateTrimsData(t *testing.T) {
	fs := newFS(Strong)
	c := fs.NewClient(0)
	h := mustOpen(t, c, "/f", OCreat|ORdwr, 1)
	writeAll(t, h, 0, []byte("0123456789"), 10)
	if _, err := h.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if got := h.VisibleSize(20); got != 4 {
		t.Fatalf("size after truncate = %d, want 4", got)
	}
	if got := readAll(t, h, 0, 10, 30); !bytes.Equal(got, []byte("0123")) {
		t.Fatalf("read after truncate = %q", got)
	}
}

func TestHandleModeEnforcement(t *testing.T) {
	fs := newFS(Strong)
	c := fs.NewClient(0)
	hr := mustOpen(t, c, "/f", OCreat|ORdonly, 1)
	if _, err := hr.Write(0, payload.Bytes([]byte("x")), 10); err == nil {
		t.Fatal("write on read-only handle should fail")
	}
	hw := mustOpen(t, c, "/f", OWronly, 2)
	if _, _, err := hw.Read(0, 1, 10); err == nil {
		t.Fatal("read on write-only handle should fail")
	}
}

func TestClosedHandleRejected(t *testing.T) {
	fs := newFS(Strong)
	c := fs.NewClient(0)
	h := mustOpen(t, c, "/f", OCreat|ORdwr, 1)
	if _, err := h.Close(10); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write(0, payload.Bytes([]byte("x")), 20); err != errClosed {
		t.Fatalf("write on closed handle: %v", err)
	}
	if _, _, err := h.Read(0, 1, 20); err != errClosed {
		t.Fatalf("read on closed handle: %v", err)
	}
	if _, err := h.Close(20); err != errClosed {
		t.Fatalf("double close: %v", err)
	}
}

func TestOpenMissingWithoutCreate(t *testing.T) {
	fs := newFS(Strong)
	c := fs.NewClient(0)
	if _, _, err := c.Open("/missing", ORdonly, 1); err == nil {
		t.Fatal("open of missing file without O_CREAT should fail")
	}
}

func TestMetadataOps(t *testing.T) {
	fs := newFS(Strong)
	c := fs.NewClient(0)
	if _, err := fs.Mkdir("/dir"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Mkdir("/dir"); err == nil {
		t.Fatal("duplicate mkdir should fail")
	}
	h := mustOpen(t, c, "/dir/f", OCreat|OWronly, 1)
	writeAll(t, h, 0, []byte("abc"), 10)
	if _, err := h.Close(20); err != nil {
		t.Fatal(err)
	}
	info, _, err := fs.Stat("/dir/f")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != 3 {
		t.Fatalf("stat size = %d, want 3", info.Size)
	}
	if _, err := fs.Rename("/dir/f", "/dir/g"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fs.Stat("/dir/f"); err != errNotExist {
		t.Fatalf("stat of the old name after rename: %v, want errNotExist", err)
	}
	if _, _, err := fs.Stat("/dir/g"); err != nil {
		t.Fatalf("stat of the new name after rename: %v", err)
	}
	if _, err := fs.Unlink("/dir/g"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fs.Stat("/dir/g"); err != errNotExist {
		t.Fatalf("stat after unlink: %v, want errNotExist", err)
	}
	if _, err := fs.Unlink("/dir"); err != errIsDir {
		t.Fatalf("unlink of dir: %v, want ErrIsDir", err)
	}
	if _, _, err := fs.Stat("/nope"); err != errNotExist {
		t.Fatalf("stat of missing: %v", err)
	}
}

func TestStrongLockCostAndStats(t *testing.T) {
	strong := newFS(Strong)
	commit := newFS(Commit)
	ws := strong.NewClient(0)
	wc := commit.NewClient(0)
	hs := mustOpen(t, ws, "/f", OCreat|OWronly, 1)
	hc := mustOpen(t, wc, "/f", OCreat|OWronly, 1)
	strongCost, err := hs.Write(0, payload.Bytes([]byte("x")), 10)
	if err != nil {
		t.Fatal(err)
	}
	commitCost, err := hc.Write(0, payload.Bytes([]byte("x")), 10)
	if err != nil {
		t.Fatal(err)
	}
	if strongCost <= commitCost {
		t.Fatalf("strong write cost (%d) should exceed commit write cost (%d) by the lock RPC", strongCost, commitCost)
	}
	// Contention accounting: a second sharer makes acquisitions contended.
	c2 := strong.NewClient(1)
	mustOpen(t, c2, "/f", OWronly, 1)
	if _, err := hs.Write(0, payload.Bytes([]byte("x")), 20); err != nil {
		t.Fatal(err)
	}
	st := strong.Stats()
	if st.LockAcquires != 2 || st.LockContended != 2 {
		t.Fatalf("lock stats = acquires %d contended %d, want 2/2 (shared file)", st.LockAcquires, st.LockContended)
	}
	// A second, unshared file contributes acquisitions but no contention.
	h2 := mustOpen(t, ws, "/solo", OCreat|OWronly, 30)
	if _, err := h2.Write(0, payload.Bytes([]byte("y")), 40); err != nil {
		t.Fatal(err)
	}
	st = strong.Stats()
	if st.LockAcquires != 3 || st.LockContended != 2 {
		t.Fatalf("lock stats = %d/%d, want 3/2", st.LockAcquires, st.LockContended)
	}
}

func TestCommitModeSkipsLocks(t *testing.T) {
	fs := newFS(Commit)
	c := fs.NewClient(0)
	h := mustOpen(t, c, "/f", OCreat|OWronly, 1)
	writeAll(t, h, 0, []byte("x"), 10)
	if st := fs.Stats(); st.LockAcquires != 0 {
		t.Fatalf("commit semantics should not acquire locks, got %d", st.LockAcquires)
	}
}

// Property: under every model, a single process writing disjoint blocks and
// reading them back observes exactly what it wrote, regardless of write
// order (per-process ordering guarantee).
func TestPropertyOwnDisjointWritesRoundTrip(t *testing.T) {
	f := func(seed uint8, semPick uint8) bool {
		sem := AllSemantics()[int(semPick)%4]
		fs := newFS(sem)
		c := fs.NewClient(0)
		h, _, err := c.Open("/f", OCreat|ORdwr, 1)
		if err != nil {
			return false
		}
		// 8 disjoint 16-byte blocks written in a seed-derived order.
		order := make([]int, 8)
		for i := range order {
			order[i] = i
		}
		s := int(seed)
		for i := range order {
			j := (i + s) % 8
			order[i], order[j] = order[j], order[i]
		}
		now := uint64(10)
		for _, b := range order {
			data := bytes.Repeat([]byte{byte('A' + b)}, 16)
			if _, err := h.Write(int64(b*16), payload.Bytes(data), now); err != nil {
				return false
			}
			now += 10
		}
		got, _, err := mat(h.Read(0, 128, now))
		if err != nil || len(got) != 128 {
			return false
		}
		for b := 0; b < 8; b++ {
			for i := 0; i < 16; i++ {
				if got[b*16+i] != byte('A'+b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: session semantics never leaks data from sessions closed after
// the reader opened.
func TestPropertySessionNoFutureLeak(t *testing.T) {
	f := func(nWrites uint8) bool {
		fs := newFS(Session)
		w := fs.NewClient(0)
		r := fs.NewClient(1)
		hw, _, err := w.Open("/f", OCreat|OWronly, 1)
		if err != nil {
			return false
		}
		hr, _, err := r.Open("/f", ORdonly, 2)
		if err != nil {
			return false
		}
		now := uint64(10)
		n := int(nWrites%16) + 1
		for i := 0; i < n; i++ {
			if _, err := hw.Write(int64(i*4), payload.Bytes([]byte("DATA")), now); err != nil {
				return false
			}
			now += 5
		}
		if _, err := hw.Close(now); err != nil {
			return false
		}
		got, _, err := mat(hr.Read(0, int64(n*4), now+10))
		return err == nil && len(got) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
