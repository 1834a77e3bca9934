package storage

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestBackoffDelayPropertyBounds is the first half of the retry-policy
// property suite: for any seed, Delay is a pure function of (seed, attempt)
// — two independent evaluations agree — and the cumulative sleep across any
// prefix of attempts stays under the analytic, seed-independent
// MaxTotalDelay bound.
func TestBackoffDelayPropertyBounds(t *testing.T) {
	const attempts = 10
	for seed := uint64(1); seed <= 256; seed++ {
		b := backoff{Seed: seed}
		var total uint64
		for a := 0; a < attempts; a++ {
			d1 := b.Delay(a)
			d2 := backoff{Seed: seed}.Delay(a) // fresh value, same inputs
			if d1 != d2 {
				t.Fatalf("seed %d attempt %d: Delay not deterministic (%d vs %d)", seed, a, d1, d2)
			}
			total += d1
			if bound := b.MaxTotalDelay(a + 1); total > bound {
				t.Fatalf("seed %d: total sleep %d after %d attempts exceeds bound %d",
					seed, total, a+1, bound)
			}
		}
	}
}

// TestBackoffJitterBounds: every delay stays within ±25% of the capped
// geometric nominal, for several seeds and cap settings, and racing callers
// see the same delays for a fixed seed.
func TestBackoffJitterBounds(t *testing.T) {
	for _, capNS := range []uint64{64_000, 1 << 30} {
		for seed := uint64(1); seed <= 5; seed++ {
			b := backoff{BaseNS: 1_000, Multiplier: 2, CapNS: capNS, Seed: seed}
			nominal := uint64(1_000)
			for attempt := 0; attempt < 24; attempt++ {
				d := b.Delay(attempt)
				if lo, hi := nominal-nominal/4, nominal+nominal/4; d < lo || d > hi {
					t.Fatalf("cap %d seed %d attempt %d: delay %d outside [%d, %d] (nominal %d)",
						capNS, seed, attempt, d, lo, hi, nominal)
				}
				nominal = min(nominal*2, capNS)
			}
		}
	}

	b := backoff{BaseNS: 1_000, Multiplier: 2, CapNS: 64_000, Seed: 7}
	want := make([]uint64, 16)
	for i := range want {
		want[i] = b.Delay(i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range want {
				if d := b.Delay(i); d != want[i] {
					t.Errorf("concurrent Delay(%d) = %d, want %d", i, d, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// TestRetryTotalSleepDeterministicAndBounded drives the policy wrapper
// itself against an always-transient backend with an instrumented Sleep:
// the observed sleep sequence is identical run to run, its total is under
// MaxTotalDelay, and exhaustion surfaces as errUnavailable (errTransient
// deliberately shed) with Healthy() sticky false.
func TestRetryTotalSleepDeterministicAndBounded(t *testing.T) {
	run := func() ([]time.Duration, error) {
		var sleeps []time.Duration
		b := NewRetry(NewFlaky(OS(), Schedule{WedgeAfter: 1}), RetryOptions{
			Sleep: func(d time.Duration) { sleeps = append(sleeps, d) },
		})
		f, err := b.Open(filepath.Join(t.TempDir(), "x.dat"), OCreate|OWronly, 0o644)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if _, err := f.Write([]byte("warm")); err != nil { // pre-wedge, succeeds
			return nil, err
		}
		_, werr := f.Write([]byte("doomed")) // wedged: transient forever
		if Health(b) {
			return nil, errors.New("policy exhausted but Health still true")
		}
		return sleeps, werr
	}

	s1, err1 := run()
	s2, err2 := run()
	if err1 == nil || err2 == nil {
		t.Fatalf("wedged write succeeded (%v, %v)", err1, err2)
	}
	if !errors.Is(err1, errUnavailable) {
		t.Fatalf("exhaustion err = %v, want errUnavailable", err1)
	}
	if errors.Is(err1, errTransient) {
		t.Fatal("exhaustion error still transient — the layer above would keep retrying")
	}
	if len(s1) != len(s2) {
		t.Fatalf("sleep sequences differ in length (%d vs %d)", len(s1), len(s2))
	}
	var total uint64
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("sleep %d: %v vs %v (not deterministic)", i, s1[i], s2[i])
		}
		total += uint64(s1[i])
	}
	if len(s1) != maxAttempts-1 {
		t.Fatalf("%d sleeps, want %d (one between each attempt)", len(s1), maxAttempts-1)
	}
	if bound := (backoff{}).MaxTotalDelay(maxAttempts - 1); total > bound {
		t.Fatalf("total sleep %d exceeds analytic bound %d", total, bound)
	}
}

// TestRetryTransientOnlyConverges is the second half of the property suite:
// for any seed, a workload run against a flaky backend with a
// transient-only schedule completes with no error surfacing and no health
// degradation — the policy absorbs every injected fault.
func TestRetryTransientOnlyConverges(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sched := GenSchedule(seed, GenOptions{
				Count: 6,
				Kinds: []FaultKind{FaultTransient},
			})
			if !sched.TransientOnly() {
				t.Fatalf("schedule not transient-only:\n%s", sched.Encode())
			}
			fb := NewFlaky(OS(), sched)
			b := NewRetry(fb, RetryOptions{Sleep: func(time.Duration) {}})
			dir := t.TempDir()
			for i := 0; i < 12; i++ {
				path := filepath.Join(dir, fmt.Sprintf("f%02d.dat", i))
				writeFile(t, b, path, fmt.Sprintf("payload %d", i))
				if got, err := b.ReadFile(path); err != nil || string(got) != fmt.Sprintf("payload %d", i) {
					t.Fatalf("readback %d: %q, %v", i, got, err)
				}
			}
			if !Health(b) {
				t.Fatalf("transient-only schedule degraded the backend (stats %+v, flaky %+v)",
					b.(*retrier).Stats(), fb.(*flaky).Stats())
			}
			if fb.(*flaky).Stats().Fired == 0 {
				t.Fatalf("schedule never fired — the property was tested against nothing:\n%s", sched.Encode())
			}
		})
	}
}

// TestRetryDeadlineShortCircuits: when the next backoff cannot fit in the
// per-op deadline, the policy stops sleeping and exhausts early instead of
// overshooting the budget.
func TestRetryDeadlineShortCircuits(t *testing.T) {
	// Each clock reading is the deadline less 1µs after the previous one,
	// so the first backoff (at least ¾ of 100µs) never fits.
	var clock time.Time
	var slept int
	b := NewRetry(NewFlaky(OS(), Schedule{WedgeAfter: 0, Injections: []faultInjection{
		{Kind: FaultTransient, N: 1, Arg: 99}, // effectively forever
	}}), RetryOptions{
		Sleep: func(time.Duration) { slept++ },
		Now: func() time.Time {
			clock = clock.Add(retryDeadline - time.Microsecond)
			return clock
		},
	})
	f, err := b.Open(filepath.Join(t.TempDir(), "x.dat"), OCreate|OWronly, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, werr := f.Write([]byte("doomed"))
	if !errors.Is(werr, errUnavailable) {
		t.Fatalf("err = %v, want errUnavailable", werr)
	}
	if slept != 0 {
		t.Fatalf("slept %d times past a deadline that cannot fit any backoff", slept)
	}
}
