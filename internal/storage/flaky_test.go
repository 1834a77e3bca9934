package storage

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
	"time"
)

// TestGenScheduleDeterministic: same (seed, options) → byte-identical
// schedule; different seeds diverge. The determinism contract CI's
// backend matrix leans on (a failing seed is replayable verbatim).
func TestGenScheduleDeterministic(t *testing.T) {
	opts := GenOptions{Count: 8}
	for seed := uint64(1); seed <= 64; seed++ {
		a := GenSchedule(seed, opts).Encode()
		b := GenSchedule(seed, opts).Encode()
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: schedule not deterministic:\n%s\nvs\n%s", seed, a, b)
		}
	}
	if bytes.Equal(GenSchedule(1, opts).Encode(), GenSchedule(2, opts).Encode()) {
		t.Fatal("seeds 1 and 2 generated identical schedules")
	}
}

// openFlakyFile wires one flaky file over a real osdisk file for direct
// fault-contract tests.
func openFlakyFile(t *testing.T, sched Schedule) (Backend, File, string) {
	t.Helper()
	fb := NewFlaky(OS(), sched)
	path := filepath.Join(t.TempDir(), "f.dat")
	f, err := fb.Open(path, OCreate|oRdwr, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return fb, f, path
}

// TestFlakyTransientFiresBeforeEffects: an injected transient write fails
// with errTransient and leaves the underlying file untouched — the
// side-effect-free contract that makes the retry policy safe.
func TestFlakyTransientFiresBeforeEffects(t *testing.T) {
	sched := Schedule{Injections: []faultInjection{{Kind: FaultTransient, N: 1, Arg: 2}}}
	fb, f, path := openFlakyFile(t, sched)
	// N=1 with Arg=2: first two eligible ops fail, third succeeds.
	for i := 0; i < 2; i++ {
		if _, err := f.Write([]byte("data")); !errors.Is(err, errTransient) {
			t.Fatalf("write %d: err = %v, want errTransient", i, err)
		}
	}
	if got, _ := OS().ReadFile(path); len(got) != 0 {
		t.Fatalf("transient failure touched the file: %q", got)
	}
	if _, err := f.Write([]byte("data")); err != nil {
		t.Fatalf("post-blip write: %v", err)
	}
	st := fb.(*flaky).Stats()
	if st.Fired == 0 || st.Ops != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFlakyFailStreakBoundedUnderSharing: two callers share one flaky
// backend under a transient-only schedule whose blips are spaced three
// operations apart. Between caller A's retries, caller B consumes blip
// budget and advances the counters, so without a per-path bound A's
// retries meet blip after blip and its fifth attempt fails too — the
// retry policy's default budget exhausted by a transient-only schedule,
// which drove a WAL under the kill harness into write-through. A must
// never fail more than maxFailStreak times in a row.
func TestFlakyFailStreakBoundedUnderSharing(t *testing.T) {
	sched := Schedule{Injections: []faultInjection{
		{Kind: FaultTransient, N: 1, Arg: 3},
		{Kind: FaultTransient, N: 4, Arg: 3},
		{Kind: FaultTransient, N: 7, Arg: 3},
		{Kind: FaultTransient, N: 10, Arg: 3},
	}}
	if !sched.TransientOnly() {
		t.Fatal("schedule not transient-only")
	}
	fb := NewFlaky(OS(), sched)
	dir := t.TempDir()
	open := func(name string) File {
		f, err := fb.Open(filepath.Join(dir, name), OCreate|OWronly, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	a, b := open("a.dat"), open("b.dat")
	streak := 0
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if _, err := a.Write([]byte("a")); err == nil {
			if streak > maxFailStreak {
				t.Fatalf("A failed %d times in a row before succeeding", streak)
			}
			return
		} else if !errors.Is(err, errTransient) {
			t.Fatalf("A attempt %d: %v", attempt, err)
		}
		streak++
		// B's traffic between A's retries: after A meets an injection, B
		// takes one op of the blip and leaves A the last; after A takes
		// that, B's two ops advance the counters onto A's next injection.
		for i := 0; i < 1+(attempt+1)%2; i++ {
			b.Write([]byte("b"))
		}
	}
	t.Fatalf("A failed all %d attempts under a transient-only schedule", maxAttempts)
}

// TestFlakyTornWriteIsPermanent: a torn write lands half the payload and
// returns a NON-transient error. If it were errTransient the retry policy
// would replay it and duplicate half-frames into append-only logs.
func TestFlakyTornWriteIsPermanent(t *testing.T) {
	sched := Schedule{Injections: []faultInjection{{Kind: faultTorn, N: 1}}}
	_, f, path := openFlakyFile(t, sched)
	payload := []byte("0123456789abcdef")
	n, err := f.Write(payload)
	if err == nil {
		t.Fatal("torn write reported success")
	}
	if errors.Is(err, errTransient) {
		t.Fatalf("torn write returned errTransient (%v) — retrying would corrupt the log", err)
	}
	if n != len(payload)/2 {
		t.Fatalf("torn write landed %d bytes, want %d", n, len(payload)/2)
	}
	got, _ := OS().ReadFile(path)
	if !bytes.Equal(got, payload[:len(payload)/2]) {
		t.Fatalf("on disk after torn write: %q", got)
	}
}

// TestFlakyLostSync: the sync reports success but does not reach the inner
// backend — on the objstore base that means the version is never published.
func TestFlakyLostSync(t *testing.T) {
	inner := NewObjStore(ObjStoreOptions{Root: t.TempDir(), VisibilityDelay: time.Millisecond})
	fb := NewFlaky(inner, Schedule{Injections: []faultInjection{{Kind: faultLostSync, N: 1}}})
	f, err := fb.Open("k.dat", OCreate|OWronly, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("lost sync must lie with success, got %v", err)
	}
	// Settle past the visibility horizon: the key must be absent because it
	// was never published, not merely still inside the publish window.
	Settle(inner)
	if _, err := inner.ReadFile("k.dat"); !IsNotExist(err) {
		t.Fatalf("lost sync actually published: err = %v", err)
	}
}

// TestFlakyWedge: past WedgeAfter eligible ops, everything fails forever —
// the persistent-failure shape that must exhaust the retry policy.
func TestFlakyWedge(t *testing.T) {
	fb, f, _ := openFlakyFile(t, Schedule{WedgeAfter: 2})
	for i := 0; i < 2; i++ {
		if _, err := f.Write([]byte("ok")); err != nil {
			t.Fatalf("pre-wedge write %d: %v", i, err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := f.Write([]byte("no")); !errors.Is(err, errTransient) {
			t.Fatalf("post-wedge write %d: err = %v, want errTransient", i, err)
		}
	}
	if !fb.(*flaky).Wedged() {
		t.Fatal("backend not wedged")
	}
	if err := f.Sync(); !errors.Is(err, errTransient) {
		t.Fatalf("post-wedge sync: %v", err)
	}
}

// TestFlakyRetryStormDoesNotShiftSchedule: while a transient blip is live,
// failing retries consume the blip budget without advancing the Nth-op
// counters, so later injections fire at the same workload positions whether
// or not a retry layer sits on top.
func TestFlakyRetryStormDoesNotShiftSchedule(t *testing.T) {
	sched := Schedule{Injections: []faultInjection{
		{Kind: FaultTransient, N: 1, Arg: 3}, // ops 1..3 fail
		{Kind: faultTorn, N: 3},              // fires at the 3rd *counted* write
	}}
	_, f, _ := openFlakyFile(t, sched)
	var failures int
	var tornAt int
	for i := 1; i <= 8; i++ {
		_, err := f.Write([]byte("0123456789"))
		if err == nil {
			continue
		}
		if errors.Is(err, errTransient) {
			failures++
		} else {
			tornAt = i
		}
	}
	if failures != 3 {
		t.Fatalf("transient failures = %d, want 3", failures)
	}
	// Op 1 counts (and starts the blip); ops 2-3 burn the blip budget
	// without counting; the counter resumes at op 4 (count 2), so the torn
	// injection (counted N=3) fires at overall op 5.
	if tornAt != 5 {
		t.Fatalf("torn write fired at op %d, want 5 (schedule shifted by the retry storm)", tornAt)
	}
}
