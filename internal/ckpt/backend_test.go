package ckpt

import (
	"errors"
	"testing"
	"time"

	"repro/internal/storage"
)

func objStore(t *testing.T) storage.Backend {
	t.Helper()
	return storage.NewObjStore(storage.ObjStoreOptions{
		Root:            t.TempDir(),
		VisibilityDelay: 2 * time.Millisecond,
	})
}

// TestOpenOnObjStore: the full ckpt lifecycle — open, append, close, resume
// — over the eventually-consistent backend. OpenOn settles the visibility
// horizon, so resume must see every committed key.
func TestOpenOnObjStore(t *testing.T) {
	b := objStore(t)
	m := Manifest{Kind: "objstore.test", Ranks: 2, Params: "x=1"}
	s, err := OpenOn(b, "ckpt", m)
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range []struct{ k, v string }{{"a", "1"}, {"b", "2"}, {"a", "3"}} {
		if err := s.Append(kv.k, []byte(kv.v)); err != nil {
			t.Fatalf("append %s: %v", kv.k, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenOn(b, "ckpt", m)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	defer r.Close()
	if got := r.Keys(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("resumed keys = %v", got)
	}
	if blob, ok := r.Lookup("a"); !ok || string(blob) != "3" {
		t.Fatalf(`resumed a = %q, %v (want "3" — last wins)`, blob, ok)
	}
	// Wrong manifest still refuses, same as on osdisk.
	if _, err := OpenOn(b, "ckpt", Manifest{Kind: "other"}); !errors.Is(err, ErrMismatch) {
		t.Fatalf("mismatched manifest: err = %v, want ErrMismatch", err)
	}
}

// fastRetry wraps b with the policy layer configured for tests: no real
// sleeping, default attempt budget.
func fastRetry(b storage.Backend) storage.Backend {
	return storage.NewRetry(b, storage.RetryOptions{Sleep: func(time.Duration) {}})
}

// TestOpenOnPersistentFailureIsConfigError: a backend that is wedged from
// (nearly) the start exhausts the retry policy during OpenOn, and ckpt
// demotes that to errBackendConfig — the sweep refuses to start rather than
// half-run against a store it cannot commit to.
func TestOpenOnPersistentFailureIsConfigError(t *testing.T) {
	b := fastRetry(storage.NewFlaky(storage.OS(), storage.Schedule{WedgeAfter: 1}))
	_, err := OpenOn(b, t.TempDir(), Manifest{Kind: "doomed"})
	if !errors.Is(err, errBackendConfig) {
		t.Fatalf("OpenOn on wedged backend: err = %v, want ErrBackendConfig", err)
	}
}

// TestAppendPersistentFailureIsConfigError: the backend wedges after the
// store opened successfully; the failing Append surfaces errBackendConfig,
// not a bare storage error.
func TestAppendPersistentFailureIsConfigError(t *testing.T) {
	// OpenOn costs 3 eligible ops (manifest write+sync+rename) and one
	// append costs 3 more (two framed writes + fsync); wedging after 6 lets
	// exactly one append commit before the store dies.
	b := fastRetry(storage.NewFlaky(storage.OS(), storage.Schedule{WedgeAfter: 6}))
	s, err := OpenOn(b, t.TempDir(), Manifest{Kind: "wedge.mid"})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	if err := s.Append("ok", []byte("committed")); err != nil {
		t.Fatalf("first append: %v", err)
	}
	err = s.Append("doomed", []byte("never"))
	if !errors.Is(err, errBackendConfig) {
		t.Fatalf("append on wedged backend: err = %v, want ErrBackendConfig", err)
	}
	if !errors.Is(err, storage.ErrUnavailable) {
		t.Fatalf("config error should preserve the ErrUnavailable cause: %v", err)
	}
}

// TestTransientOnlyScheduleCommitsCleanly: with a transient-only fault
// schedule under the retry policy, every ckpt operation converges — no
// error, no health degradation, schedule verified to have actually fired.
func TestTransientOnlyScheduleCommitsCleanly(t *testing.T) {
	sched := storage.GenSchedule(11, storage.GenOptions{
		Count: 6,
		Kinds: []storage.FaultKind{storage.FaultTransient, storage.FaultRenameFail},
	})
	if !sched.TransientOnly() {
		t.Fatalf("schedule not transient-only:\n%s", sched.Encode())
	}
	b := fastRetry(storage.NewFlaky(storage.OS(), sched))
	dir := t.TempDir()
	m := Manifest{Kind: "flaky.transient"}
	s, err := OpenOn(b, dir, m)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 8; i++ {
		if err := s.Append("k", []byte{byte(i)}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !storage.Health(b) {
		t.Fatal("transient-only schedule degraded the backend")
	}
	keys, stats, err := ReadJournalOn(b, dir)
	if err != nil || len(keys) != 1 || stats.Records != 8 {
		t.Fatalf("readback: keys=%v stats=%+v err=%v", keys, stats, err)
	}
}
