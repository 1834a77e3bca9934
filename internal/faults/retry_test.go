package faults

// Satellite regression tests for the retry/backoff machinery the WAL
// drainer leans on: the injector's transient-error accounting must be
// deterministic per rank for a fixed seed even when ranks intercept
// concurrently, and the WAL's retry backoff must be a pure function of
// (seed, attempt) with jitter inside its documented ±25% envelope.

import (
	"reflect"
	"sync"
	"testing"

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

// TestRetryBackoffJitterWithinBounds: storage.Backoff (what the WAL drainer
// sleeps between transient retries) stays within ±25% of the capped
// geometric nominal, and concurrent callers — the drainer goroutine and a
// foreground barrier can both retry — see identical delays for a fixed
// seed.
func TestRetryBackoffJitterWithinBounds(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		b := storage.Backoff{BaseNS: 1_000, Multiplier: 2, CapNS: 64_000, Seed: seed}
		nominal := uint64(1_000)
		for attempt := 0; attempt < 16; attempt++ {
			d := b.Delay(attempt)
			lo, hi := nominal-nominal/4, nominal+nominal/4
			if d < lo || d > hi {
				t.Errorf("seed %d attempt %d: delay %d outside [%d, %d] (nominal %d)",
					seed, attempt, d, lo, hi, nominal)
			}
			if nominal < 64_000 {
				nominal *= 2
				if nominal > 64_000 {
					nominal = 64_000
				}
			}
		}
	}

	// Concurrency: racing callers must not perturb the sequence.
	b := storage.Backoff{BaseNS: 1_000, Multiplier: 2, CapNS: 64_000, Seed: 7}
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
