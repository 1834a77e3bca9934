package storage

import (
	"path/filepath"
	"testing"
	"time"
)

// TestOSDiskRoundTrip drives the whole Backend surface on the OS backend —
// the operations the durable layers (ckpt, wal, recorder) actually perform.
func TestOSDiskRoundTrip(t *testing.T) {
	b := OS()
	if b.Name() != "osdisk" {
		t.Fatalf("Name = %q", b.Name())
	}
	dir := t.TempDir()
	sub := filepath.Join(dir, "a", "b")
	if err := b.MkdirAll(sub); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(sub, "c.dat")
	f, err := b.Open(path, OCreate|oRdwr, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello ?????")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("world"), 6); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello world" {
		t.Fatalf("ReadFile = %q", got)
	}
	if n, err := b.Stat(path); err != nil || n != 11 {
		t.Fatalf("Stat = %d, %v", n, err)
	}
	names, err := b.List(sub)
	if err != nil || len(names) != 1 || names[0] != "c.dat" {
		t.Fatalf("List = %v, %v", names, err)
	}
	moved := filepath.Join(sub, "d.dat")
	if err := b.Rename(path, moved); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReadFile(path); !IsNotExist(err) {
		t.Fatalf("old path after rename: err = %v, want not-exist", err)
	}
	if err := b.Remove(moved); err != nil {
		t.Fatal(err)
	}
	// A missing directory lists empty, not an error (recovery scans
	// directories that may never have been created).
	names, err = b.List(filepath.Join(dir, "never-created"))
	if err != nil || len(names) != 0 {
		t.Fatalf("List(missing) = %v, %v", names, err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	b := OS()
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	for _, content := range []string{"first", "second and longer"} {
		if err := WriteFileAtomic(b, path, []byte(content)); err != nil {
			t.Fatal(err)
		}
		got, err := b.ReadFile(path)
		if err != nil || string(got) != content {
			t.Fatalf("after WriteFileAtomic(%q): %q, %v", content, got, err)
		}
	}
	// No temp litter left behind: the directory holds exactly the target.
	names, err := b.List(dir)
	if err != nil || len(names) != 1 {
		t.Fatalf("List = %v, %v (want just manifest.json)", names, err)
	}
}

func TestTempDirRemoveAll(t *testing.T) {
	for _, tc := range []struct {
		name string
		b    Backend
	}{
		{"osdisk", OS()},
		{"objstore", NewObjStore(ObjStoreOptions{Root: t.TempDir(), VisibilityDelay: time.Millisecond})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, err := TempDir(tc.b, "semfs-test-")
			if err != nil {
				t.Fatal(err)
			}
			path := joinPath(dir, "x.dat")
			if err := WriteFileAtomic(tc.b, path, []byte("x")); err != nil {
				t.Fatal(err)
			}
			if err := RemoveAll(tc.b, dir); err != nil {
				t.Fatal(err)
			}
			Settle(tc.b)
			if _, err := tc.b.ReadFile(path); !IsNotExist(err) {
				t.Fatalf("after RemoveAll: err = %v, want not-exist", err)
			}
		})
	}
}

func TestParseSpec(t *testing.T) {
	root := t.TempDir()
	for _, tc := range []struct {
		spec     string
		wantName string
		wantBase string
		wantLag  time.Duration
	}{
		{"osdisk", "osdisk", "osdisk", 0},
		{"", "osdisk", "osdisk", 0},
		{"objstore:delay=5ms,root=" + root, "objstore", "objstore", 5 * time.Millisecond},
		{"flaky:seed=3", "flaky(osdisk)", "osdisk", 0},
		{"flaky:base=objstore,delay=1ms,root=" + root + ",seed=3,kinds=transient", "flaky(objstore)", "objstore", time.Millisecond},
	} {
		b, err := ParseSpec(tc.spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", tc.spec, err)
		}
		if b.Name() != tc.wantName {
			t.Errorf("ParseSpec(%q).Name() = %q, want %q", tc.spec, b.Name(), tc.wantName)
		}
		if Base(b).Name() != tc.wantBase {
			t.Errorf("ParseSpec(%q) base = %q, want %q", tc.spec, Base(b).Name(), tc.wantBase)
		}
		if got := publishLag(b); got != tc.wantLag {
			t.Errorf("ParseSpec(%q) PublishLag = %v, want %v", tc.spec, got, tc.wantLag)
		}
	}
	for _, bad := range []string{"s3", "objstore:delay=nope", "flaky:base=tape", "flaky:kinds=spicy", "osdisk:x"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", bad)
		}
	}
}

// TestParseSpecTransientKinds pins the CLI contract the backend-matrix CI
// leans on: kinds=transient must yield a schedule the retry policy always
// converges under (Schedule.TransientOnly).
func TestParseSpecTransientKinds(t *testing.T) {
	for seed := uint64(1); seed <= 32; seed++ {
		sched := GenSchedule(seed, GenOptions{Kinds: []FaultKind{faultLatency, FaultTransient}})
		if !sched.TransientOnly() {
			t.Fatalf("seed %d: kinds=transient schedule is not TransientOnly:\n%s", seed, sched.Encode())
		}
	}
	all := GenSchedule(7, GenOptions{Count: 32})
	if all.TransientOnly() {
		t.Fatalf("32-injection all-kinds schedule claims TransientOnly:\n%s", all.Encode())
	}
	if !(Schedule{}).TransientOnly() {
		t.Fatal("empty schedule must be TransientOnly")
	}
	if (Schedule{WedgeAfter: 1}).TransientOnly() {
		t.Fatal("wedging schedule must not be TransientOnly")
	}
}

func TestBaseAndHealthWalkWrapperChains(t *testing.T) {
	inner := OS()
	b := NewRetry(NewFlaky(inner, Schedule{}), RetryOptions{})
	if Base(b) != inner {
		t.Fatalf("Base = %v", Base(b))
	}
	if !Health(b) {
		t.Fatal("fresh chain reports unhealthy")
	}
}

func TestSplitJoinPath(t *testing.T) {
	for _, tc := range []struct{ path, dir, base string }{
		{"a/b/c", "a/b", "c"},
		{"c", ".", "c"},
		{"/c", "/", "c"},
	} {
		d, b := splitPath(tc.path)
		if d != tc.dir || b != tc.base {
			t.Errorf("splitPath(%q) = %q, %q", tc.path, d, b)
		}
	}
	if got := joinPath(".", "x"); got != "x" {
		t.Errorf("joinPath(., x) = %q", got)
	}
	if got := joinPath("a/b", "x"); got != "a/b/x" {
		t.Errorf("joinPath = %q", got)
	}
}
