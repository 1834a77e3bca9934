package storage

import (
	"bytes"
	"testing"
	"time"
)

// TestObjStoreVisibilityDelay proves the eventual semantics are real: a
// published (Sync'd) object is NOT readable until the visibility delay has
// elapsed — there is no backdoor a reader could race through.
func TestObjStoreVisibilityDelay(t *testing.T) {
	const delay = 120 * time.Millisecond
	b := NewObjStore(ObjStoreOptions{Root: t.TempDir(), VisibilityDelay: delay})
	if publishLag(b) != delay {
		t.Fatalf("PublishLag = %v, want %v", publishLag(b), delay)
	}
	f, err := b.Open("dir/obj.dat", OCreate|OWronly, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil { // the publish point
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Within the visibility window the object does not exist for readers.
	if _, err := b.ReadFile("dir/obj.dat"); !IsNotExist(err) {
		t.Fatalf("read inside visibility window: err = %v, want not-exist", err)
	}
	if _, err := b.Stat("dir/obj.dat"); !IsNotExist(err) {
		t.Fatalf("stat inside visibility window: err = %v, want not-exist", err)
	}
	Settle(b) // wait the horizon out — the honest read repair
	got, err := b.ReadFile("dir/obj.dat")
	if err != nil || string(got) != "payload" {
		t.Fatalf("after settle: %q, %v", got, err)
	}
	if n, err := b.Stat("dir/obj.dat"); err != nil || n != 7 {
		t.Fatalf("Stat after settle = %d, %v", n, err)
	}
}

// TestObjStorePersistentRoot pins the cross-process contract the CI
// backend matrix relies on: two store instances over the same root see the
// same objects (the burst child writes, the recovering parent reads).
func TestObjStorePersistentRoot(t *testing.T) {
	root := t.TempDir()
	w := NewObjStore(ObjStoreOptions{Root: root, VisibilityDelay: time.Millisecond})
	if err := WriteFileAtomic(w, "logs/rank-0000.wal", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(w, "logs/rank-0001.wal", []byte("beta")); err != nil {
		t.Fatal(err)
	}

	r := NewObjStore(ObjStoreOptions{Root: root, VisibilityDelay: time.Millisecond})
	Settle(r)
	names, err := r.List("logs")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "rank-0000.wal" || names[1] != "rank-0001.wal" {
		t.Fatalf("List = %v", names)
	}
	got, err := r.ReadFile("logs/rank-0001.wal")
	if err != nil || string(got) != "beta" {
		t.Fatalf("cross-instance read: %q, %v", got, err)
	}
}

// TestObjStoreRename exercises the copy+delete rename — the weaker publish
// an object store offers in place of an atomic rename.
func TestObjStoreRename(t *testing.T) {
	b := NewObjStore(ObjStoreOptions{Root: t.TempDir(), VisibilityDelay: time.Millisecond})
	if err := WriteFileAtomic(b, "tmp/stage.json", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	Settle(b)
	if err := b.Rename("tmp/stage.json", "meta/ckpt.json"); err != nil {
		t.Fatal(err)
	}
	Settle(b)
	got, err := b.ReadFile("meta/ckpt.json")
	if err != nil || string(got) != `{"v":1}` {
		t.Fatalf("renamed object: %q, %v", got, err)
	}
	if _, err := b.ReadFile("tmp/stage.json"); !IsNotExist(err) {
		t.Fatalf("source survived rename: err = %v", err)
	}
}

// TestObjStoreAppendAcrossOpens is the WAL usage pattern: reopen the log
// object, seek to the end, append, publish — the previous contents must be
// preserved in the newly published version.
func TestObjStoreAppendAcrossOpens(t *testing.T) {
	b := NewObjStore(ObjStoreOptions{Root: t.TempDir(), VisibilityDelay: time.Millisecond})
	write := func(chunk string) {
		f, err := b.Open("seg.wal", OCreate|oRdwr, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Seek(0, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte(chunk)); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		Settle(b)
	}
	write("rec1|")
	write("rec2|")
	got, err := b.ReadFile("seg.wal")
	if err != nil || !bytes.Equal(got, []byte("rec1|rec2|")) {
		t.Fatalf("after two append sessions: %q, %v", got, err)
	}
}
