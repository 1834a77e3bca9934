package faults

// The injector's transient-error accounting must be deterministic per rank
// for a fixed seed even when ranks intercept concurrently, and the storage
// retry policy's backoff must stay inside its documented ±25% jitter
// envelope whatever the interleaving of the callers retrying.

import (
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/pfs"
	"repro/internal/storage"
)

// driveInjector performs a fixed per-rank operation program against inj with
// one goroutine per rank, modelling a retry loop: every transient answer is
// retried (Attempt > 0) until the injector lets the operation through.
// Returns the per-rank count of transient answers observed.
func driveInjector(inj *faultInjector, ranks, opsPerRank int) []int {
	retries := make([]int, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < opsPerRank; i++ {
				op := pfs.OpInfo{Kind: pfs.OpWrite, Rank: r, Path: "/f",
					Off: int64(i) * 64, Len: 64, Now: uint64(10 + 10*i)}
				act := inj.Intercept(op)
				for attempt := 1; act.Transient; attempt++ {
					retries[r]++
					op.Attempt = attempt
					act = inj.Intercept(op)
				}
			}
		}(r)
	}
	wg.Wait()
	return retries
}

// TestInjectorDeterministicUnderConcurrentRanks: for a fixed seed, the
// per-rank fault stream (fired events and transient retry counts) is
// identical across runs even though ranks race into Intercept — the
// injector keys its accounting by (rank, class, nth op), never by global
// arrival order.
func TestInjectorDeterministicUnderConcurrentRanks(t *testing.T) {
	const (
		ranks = 8
		ops   = 12
		seed  = 42
	)
	sched := generate(seed, genOptions{
		Ranks: ranks,
		Kinds: []Kind{TransientError, TornWrite, DelayedPublish},
		Count: 12,
		// Every N within the per-rank program so nothing is suppressed.
		MaxNth: ops,
	})

	type outcome struct {
		events  map[int][]faultEvent
		retries []int
		fired   int
	}
	run := func() outcome {
		inj := newFaultInjector(sched)
		retries := driveInjector(inj, ranks, ops)
		return outcome{events: inj.eventsByRank(), retries: retries, fired: inj.firedCount()}
	}
	first := run()
	if first.fired == 0 {
		t.Fatalf("schedule %v fired nothing; the determinism check is vacuous", sched.Injections)
	}
	for trial := 0; trial < 10; trial++ {
		got := run()
		if got.fired != first.fired {
			t.Fatalf("trial %d fired %d faults, first run fired %d", trial, got.fired, first.fired)
		}
		if !reflect.DeepEqual(got.retries, first.retries) {
			t.Fatalf("trial %d transient retries %v, first run %v", trial, got.retries, first.retries)
		}
		if !reflect.DeepEqual(got.events, first.events) {
			t.Fatalf("trial %d per-rank events diverged:\n%v\nvs\n%v", trial, got.events, first.events)
		}
	}
}

// TestRetryBackoffJitterWithinBounds: concurrent writers, each behind its
// own retry policy on a wedged backend, sleep the same backoff sequence —
// the k-th sleep within ±25% of 100µs·2^k — so racing retriers cannot
// perturb one another's schedule.
func TestRetryBackoffJitterWithinBounds(t *testing.T) {
	const writers = 8
	dir := t.TempDir()
	sleeps := make([][]time.Duration, writers)
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			b := storage.NewRetry(storage.NewFlaky(storage.OS(), storage.Schedule{WedgeAfter: 1}),
				storage.RetryOptions{Sleep: func(d time.Duration) { sleeps[g] = append(sleeps[g], d) }})
			f, err := b.Open(filepath.Join(dir, fmt.Sprintf("w%d.dat", g)),
				storage.OCreate|storage.OWronly, 0o644)
			if err != nil {
				errs[g] = err
				return
			}
			defer f.Close()
			if _, err := f.Write([]byte("warm")); err != nil { // pre-wedge, succeeds
				errs[g] = err
				return
			}
			if _, err := f.Write([]byte("doomed")); err == nil {
				errs[g] = fmt.Errorf("writer %d: wedged write succeeded", g)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if len(sleeps[0]) == 0 {
		t.Fatal("the wedged write never retried")
	}
	for k, d := range sleeps[0] {
		nominal := time.Duration(100_000) << k
		if lo, hi := nominal-nominal/4, nominal+nominal/4; d < lo || d > hi {
			t.Errorf("sleep %d: %v outside [%v, %v] (nominal %v)", k, d, lo, hi, nominal)
		}
	}
	for g := 1; g < writers; g++ {
		if !slices.Equal(sleeps[g], sleeps[0]) {
			t.Errorf("writer %d slept %v, writer 0 slept %v", g, sleeps[g], sleeps[0])
		}
	}
}
