package wal_test

// WAL property suites: the WAL's consistency claim. For every model,
// randomized multi-rank schedules whose writes go *through* per-rank
// write-ahead logs must produce pfs histories the model's executable formal
// spec (internal/consistency) accepts — the log and its ack-time timestamps
// must be invisible to the semantics. Serial runs pin one deterministic
// interleaving; concurrent runs put every rank on its own goroutine and are
// the -race leg CI runs.

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/consistency"
	"repro/internal/payload"
	"repro/internal/pfs"
	"repro/internal/pfs/pfstest"
	"repro/internal/wal"
)

// walRunner mirrors pfstest's runner with every write routed through the
// rank's Log; every other op goes to the handle, as posix does.
type walRunner struct {
	fs      *pfs.FileSystem
	clients []*pfs.Client
	handles []*pfs.Handle
	logs    []*wal.Log
	clock   atomic.Uint64
}

func newWALRunner(t *testing.T, fs *pfs.FileSystem, ranks int) (*walRunner, error) {
	t.Helper()
	r := &walRunner{fs: fs,
		clients: make([]*pfs.Client, ranks),
		handles: make([]*pfs.Handle, ranks),
		logs:    make([]*wal.Log, ranks),
	}
	r.clock.Store(10)
	for rank := 0; rank < ranks; rank++ {
		l, err := wal.Open(rank, wal.Options{Dir: t.TempDir(), NoFsync: true})
		if err != nil {
			return nil, err
		}
		r.logs[rank] = l
		r.clients[rank] = fs.NewClient(rank)
		flags := pfs.ORdwr
		if rank == 0 {
			flags |= pfs.OCreat
		}
		h, _, err := r.clients[rank].Open(pfstest.Path, flags, r.now())
		if err != nil {
			return nil, fmt.Errorf("rank %d open: %w", rank, err)
		}
		r.handles[rank] = h
	}
	return r, nil
}

func (r *walRunner) now() uint64 { return r.clock.Add(10) }

func (r *walRunner) exec(op pfstest.Op) error {
	now := r.now()
	l := r.logs[op.Rank]
	h := r.handles[op.Rank]
	var err error
	switch op.Kind {
	case pfstest.OpWrite:
		_, err = l.Write(h, op.Off, payload.Bytes(op.Data), now)
	case pfstest.OpRead:
		_, _, err = h.Read(op.Off, op.Len, now)
	case pfstest.OpCommit:
		_, err = h.Commit(now)
	case pfstest.OpReopen:
		if _, err = h.Close(now); err == nil {
			r.handles[op.Rank], _, err = r.clients[op.Rank].Open(pfstest.Path, pfs.ORdwr, r.now())
		}
	case pfstest.OpTruncate:
		_, err = h.Truncate(op.Len)
	case pfstest.OpLaminate:
		_, err = h.Laminate(now)
	}
	// Post-lamination failures (including a write whose drain found the
	// file laminated) are part of the schedule contract, as in pfstest.
	if errors.Is(err, pfs.ErrLaminated) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("rank %d %s: %w", op.Rank, op.Kind, err)
	}
	return nil
}

func (r *walRunner) close() error {
	var errs []error
	for _, l := range r.logs {
		if err := l.Close(); err != nil && !errors.Is(err, pfs.ErrLaminated) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

func runWALSerial(t *testing.T, fs *pfs.FileSystem, sched pfstest.Schedule, ranks int) error {
	r, err := newWALRunner(t, fs, ranks)
	if err != nil {
		return err
	}
	for _, op := range sched {
		if err := r.exec(op); err != nil {
			r.close()
			return err
		}
	}
	return r.close()
}

func runWALConcurrent(t *testing.T, fs *pfs.FileSystem, sched pfstest.Schedule, ranks int) error {
	r, err := newWALRunner(t, fs, ranks)
	if err != nil {
		return err
	}
	perRank := make([]pfstest.Schedule, ranks)
	for _, op := range sched {
		perRank[op.Rank] = append(perRank[op.Rank], op)
	}
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for rank := 0; rank < ranks; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for _, op := range perRank[rank] {
				if errs[rank] = r.exec(op); errs[rank] != nil {
					return
				}
			}
		}(rank)
	}
	wg.Wait()
	if cerr := r.close(); cerr != nil {
		errs = append(errs, cerr)
	}
	return errors.Join(errs...)
}

const walGenRanks = 3

func walGenOptions() pfstest.GenOptions {
	return pfstest.GenOptions{Ranks: walGenRanks, Writers: 2, Truncate: true, Laminate: true}
}

func checkWALHistory(t *testing.T, sem pfs.Semantics, sched pfstest.Schedule,
	run func(*testing.T, *pfs.FileSystem, pfstest.Schedule, int) error) {
	t.Helper()
	fs := pfs.New(pfs.Options{Semantics: sem})
	hist := consistency.NewLog()
	fs.SetHistoryRecorder(hist)
	if err := run(t, fs, sched, walGenRanks); err != nil {
		t.Fatalf("schedule failed:\n%s%v", pfstest.Format(sched), err)
	}
	res := consistency.CheckLog(sem, hist,
		consistency.Options{EventualDelayNS: uint64(fs.Options().EventualDelay)})
	if !res.OK() {
		t.Fatalf("WAL-mediated history rejected by %s spec:\n%s%s",
			sem, pfstest.Format(sched), res.Violation)
	}
}

// TestWALPropertySerial: every model x randomized schedules, serial
// foreground interleaving through the WAL, history must satisfy the spec.
func TestWALPropertySerial(t *testing.T) {
	for _, sem := range pfs.AllSemantics() {
		sem := sem
		t.Run(sem.String(), func(t *testing.T) {
			base := pfstest.BaseSeed(t, 120_000+int64(sem)*10_000)
			pfstest.Trials(t, base, 150, func(t *testing.T, rng *rand.Rand) {
				checkWALHistory(t, sem, pfstest.Generate(rng, walGenOptions()), runWALSerial)
			})
		})
	}
}

// TestWALPropertyConcurrent: per-rank goroutines racing each other through
// their logs into one pfs — the -race leg proving WAL-mediated writes are
// both data-race-free and semantics-preserving.
func TestWALPropertyConcurrent(t *testing.T) {
	for _, sem := range pfs.AllSemantics() {
		sem := sem
		t.Run(sem.String(), func(t *testing.T) {
			base := pfstest.BaseSeed(t, 160_000+int64(sem)*10_000)
			pfstest.Trials(t, base, 40, func(t *testing.T, rng *rand.Rand) {
				checkWALHistory(t, sem, pfstest.Generate(rng, walGenOptions()), runWALConcurrent)
			})
		})
	}
}
