package storage

import (
	"path/filepath"
	"strings"
	"testing"
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
	if err := b.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReadFile(path); !IsNotExist(err) {
		t.Fatalf("path after remove: err = %v, want not-exist", err)
	}
	// A missing directory lists empty, not an error (recovery scans
	// directories that may never have been created).
	names, err = b.List(filepath.Join(dir, "never-created"))
	if err != nil || len(names) != 0 {
		t.Fatalf("List(missing) = %v, %v", names, err)
	}
}

func TestTempDirRemoveAll(t *testing.T) {
	for _, tc := range []struct {
		name string
		b    Backend
	}{
		{"osdisk", OS()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, err := TempDir(tc.b, "semfs-test-")
			if err != nil {
				t.Fatal(err)
			}
			path := joinPath(dir, "x.dat")
			writeFile(t, tc.b, path, "x")
			if err := RemoveAll(tc.b, dir); err != nil {
				t.Fatal(err)
			}
			if _, err := tc.b.ReadFile(path); !IsNotExist(err) {
				t.Fatalf("after RemoveAll: err = %v, want not-exist", err)
			}
		})
	}
}

func TestParseSpec(t *testing.T) {
	for _, tc := range []struct {
		spec     string
		wantName string
		wantBase string
	}{
		{"osdisk", "osdisk", "osdisk"},
		{"", "osdisk", "osdisk"},
		{"flaky:seed=3", "flaky(osdisk)", "osdisk"},
		{"flaky:seed=3,count=8,kinds=transient", "flaky(osdisk)", "osdisk"},
	} {
		b, err := ParseSpec(tc.spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", tc.spec, err)
		}
		if b.Name() != tc.wantName {
			t.Errorf("ParseSpec(%q).Name() = %q, want %q", tc.spec, b.Name(), tc.wantName)
		}
		if base(b).Name() != tc.wantBase {
			t.Errorf("ParseSpec(%q) base = %q, want %q", tc.spec, base(b).Name(), tc.wantBase)
		}
	}
	for _, bad := range []string{"s3", "objstore", "objstore:delay=5ms", "flaky:base=objstore",
		"flaky:base=tape", "flaky:kinds=spicy", "osdisk:x"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", bad)
		}
	}
	if _, err := ParseSpec("objstore"); err == nil || !strings.Contains(err.Error(), "osdisk|flaky") {
		t.Errorf("ParseSpec(objstore) error = %v, want one naming osdisk|flaky", err)
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

func TestBaseWalksWrapperChains(t *testing.T) {
	inner := OS()
	b := NewRetry(NewFlaky(inner, Schedule{}), RetryOptions{})
	if base(b) != inner {
		t.Fatalf("base = %v", base(b))
	}
}

func TestJoinPath(t *testing.T) {
	if got := joinPath(".", "x"); got != "x" {
		t.Errorf("joinPath(., x) = %q", got)
	}
	if got := joinPath("a/b", "x"); got != "a/b/x" {
		t.Errorf("joinPath = %q", got)
	}
}

// writeFile publishes data at path on b: create, write, sync, close.
func writeFile(t *testing.T, b Backend, path, data string) {
	t.Helper()
	f, err := b.Open(path, OCreate|OWronly|OTrunc, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(data)); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
