// Package pfstest provides the shared machinery of the pfs property-test
// suites: a seeded randomized schedule generator, deterministic and
// concurrent schedule runners, a greedy schedule shrinker, and seed
// reporting so any failure is reproducible with a single environment
// variable.
//
// A Schedule is an explicit multi-rank op interleaving over one shared
// file. Run replays it serially (deterministic — the same schedule can be
// compared across consistency models), RunConcurrent replays each rank's
// subsequence on its own goroutine (the interleaving is then decided by
// the scheduler, and the pfs history hook records whichever total order
// actually happened — the input the consistency checker verifies).
//
// Seeding protocol: tests derive per-trial RNGs via Trials, which names
// each subtest "seed=N"; a failing trial therefore prints the exact seed
// in its test path. Rerun just that trial with SEMFS_PROP_SEED=N. CI runs
// the suite twice — once with the fixed default seeds, once with a
// time-derived SEMFS_PROP_SEED — so coverage grows nightly without ever
// producing an unreproducible failure.
package pfstest

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/payload"
	"repro/internal/pfs"
)

// SeedEnv is the environment variable overriding property-test base seeds.
const SeedEnv = "SEMFS_PROP_SEED"

// TrialsEnv is the environment variable overriding property-test trial
// counts: a positive integer that replaces every suite's compiled-in count.
// CI uses it to scale coverage (nightly long runs, quick smoke legs)
// without touching code; combined with SEMFS_PROP_SEED=N and
// SEMFS_PROP_TRIALS=1 it replays exactly one failing trial.
const TrialsEnv = "SEMFS_PROP_TRIALS"

// Kind enumerates schedule operations.
type Kind int

const (
	// OpWrite writes Data at Off through the rank's handle.
	OpWrite Kind = iota
	// OpRead reads Len bytes at Off through the rank's handle.
	OpRead
	// OpCommit fsyncs the rank's handle.
	OpCommit
	// OpReopen closes and reopens the rank's handle (a fresh session).
	OpReopen
	// OpTruncate truncates the file to Len via the rank's handle.
	OpTruncate
	// OpLaminate laminates the file via the rank's handle.
	OpLaminate
)

func (k Kind) String() string {
	switch k {
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	case OpCommit:
		return "commit"
	case OpReopen:
		return "reopen"
	case OpTruncate:
		return "truncate"
	case OpLaminate:
		return "laminate"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Op is one step of a schedule, executed by one rank.
type Op struct {
	Kind Kind
	Rank int
	Off  int64
	Len  int64 // read length, or truncate target length
	Data []byte
}

// Schedule is an explicit interleaving of ops over one shared file.
type Schedule []Op

// GenOptions bounds the random schedule generator. The zero value gives the
// historical visibility-suite shape: two ranks, rank 0 the only writer,
// 5–29 ops, offsets below 200, writes up to 50 bytes, 64-byte reads, no
// truncation or lamination.
type GenOptions struct {
	Ranks    int   // total ranks (>=1); default 2
	Writers  int   // ranks 0..Writers-1 may write/commit/truncate/laminate; default 1
	MaxOps   int   // upper bound on schedule length; default 29 (min is 5)
	MaxOff   int64 // exclusive bound on write/read offsets; default 200
	MaxWrite int   // max write payload bytes; default 50
	ReadLen  int64 // read request length; default 64
	Truncate bool  // include truncate ops
	Laminate bool  // include a lamination (at most one, with a read tail after it)
}

func (o GenOptions) withDefaults() GenOptions {
	if o.Ranks <= 0 {
		o.Ranks = 2
	}
	if o.Writers <= 0 {
		o.Writers = 1
	}
	if o.Writers > o.Ranks {
		o.Writers = o.Ranks
	}
	if o.MaxOps < 5 {
		o.MaxOps = 29
	}
	if o.MaxOff <= 0 {
		o.MaxOff = 200
	}
	if o.MaxWrite <= 0 {
		o.MaxWrite = 50
	}
	if o.ReadLen <= 0 {
		o.ReadLen = 64
	}
	return o
}

// Generate produces a random schedule from the given RNG. Identical
// (rng state, opt) pairs produce identical schedules.
func Generate(rng *rand.Rand, opt GenOptions) Schedule {
	opt = opt.withDefaults()
	n := 5 + rng.Intn(opt.MaxOps-4)
	ops := make(Schedule, 0, n)
	writer := func() int { return rng.Intn(opt.Writers) }
	laminated := false
	for i := 0; i < n; i++ {
		roll := rng.Intn(24)
		switch {
		case roll < 4: // commit
			ops = append(ops, Op{Kind: OpCommit, Rank: writer()})
		case roll < 8: // reopen (any rank: a reader reopen starts a fresh session)
			ops = append(ops, Op{Kind: OpReopen, Rank: rng.Intn(opt.Ranks)})
		case roll < 16: // write
			data := make([]byte, rng.Intn(opt.MaxWrite)+1)
			fill := byte(rng.Intn(256))
			for j := range data {
				data[j] = fill
			}
			ops = append(ops, Op{Kind: OpWrite, Rank: writer(),
				Off: int64(rng.Intn(int(opt.MaxOff))), Data: data})
		case roll < 22: // read
			ops = append(ops, Op{Kind: OpRead, Rank: rng.Intn(opt.Ranks),
				Off: int64(rng.Intn(int(opt.MaxOff))), Len: opt.ReadLen})
		case roll < 23 && opt.Truncate:
			ops = append(ops, Op{Kind: OpTruncate, Rank: writer(),
				Len: int64(rng.Intn(int(opt.MaxOff)))})
		case opt.Laminate && !laminated:
			ops = append(ops, Op{Kind: OpLaminate, Rank: writer()})
			laminated = true
		default:
			ops = append(ops, Op{Kind: OpRead, Rank: rng.Intn(opt.Ranks),
				Off: int64(rng.Intn(int(opt.MaxOff))), Len: opt.ReadLen})
		}
	}
	if laminated {
		// Ops after lamination mostly fail; end with a read per rank so the
		// laminated global-visibility property is always exercised.
		for r := 0; r < opt.Ranks; r++ {
			ops = append(ops, Op{Kind: OpRead, Rank: r, Off: 0, Len: opt.ReadLen})
		}
	}
	return ops
}

// ReadResult is one read's outcome during a run, in execution order for
// Run and in completion order per rank for RunConcurrent.
type ReadResult struct {
	Rank int
	Off  int64
	Data []byte
}

// Path is the single shared file every schedule targets.
const Path = "/f"

// run is the shared executor: exec serializes ops through it.
type runner struct {
	fs      *pfs.FileSystem
	clients []*pfs.Client
	handles []*pfs.Handle
	clock   atomic.Uint64

	mu    sync.Mutex
	reads []ReadResult
}

func newRunner(fs *pfs.FileSystem, ranks int) (*runner, error) {
	r := &runner{fs: fs, clients: make([]*pfs.Client, ranks), handles: make([]*pfs.Handle, ranks)}
	r.clock.Store(10)
	for rank := 0; rank < ranks; rank++ {
		r.clients[rank] = fs.NewClient(rank)
		flags := pfs.ORdwr
		if rank == 0 {
			flags |= pfs.OCreat
		}
		h, _, err := r.clients[rank].Open(Path, flags, r.now())
		if err != nil {
			return nil, fmt.Errorf("pfstest: rank %d open: %w", rank, err)
		}
		r.handles[rank] = h
	}
	return r, nil
}

func (r *runner) now() uint64 { return r.clock.Add(10) }

// exec runs one op. Errors from operating on a laminated file are part of
// the contract (schedules keep going after lamination) and are swallowed;
// anything else is a real failure.
func (r *runner) exec(op Op) error {
	now := r.now()
	h := r.handles[op.Rank]
	var err error
	switch op.Kind {
	case OpWrite:
		_, err = h.Write(op.Off, payload.Bytes(op.Data), now)
	case OpRead:
		var got payload.P
		got, _, err = h.Read(op.Off, op.Len, now)
		if err == nil {
			r.mu.Lock()
			r.reads = append(r.reads, ReadResult{Rank: op.Rank, Off: op.Off, Data: got.Materialize()})
			r.mu.Unlock()
		}
	case OpCommit:
		_, err = h.Commit(now)
	case OpReopen:
		if _, err = h.Close(now); err == nil {
			r.handles[op.Rank], _, err = r.clients[op.Rank].Open(Path, pfs.ORdwr, r.now())
		}
	case OpTruncate:
		_, err = h.Truncate(op.Len)
	case OpLaminate:
		_, err = h.Laminate(now)
	}
	if errors.Is(err, pfs.ErrLaminated) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("pfstest: rank %d %s: %w", op.Rank, op.Kind, err)
	}
	return nil
}

func ranksOf(sched Schedule) int {
	n := 1
	for _, op := range sched {
		if op.Rank+1 > n {
			n = op.Rank + 1
		}
	}
	return n
}

// Run replays the schedule serially in the given interleaving against fs,
// returning every successful read's result in execution order. Identical
// (fs options, schedule) pairs produce identical results, so runs across
// consistency models are directly comparable read-by-read.
func Run(fs *pfs.FileSystem, sched Schedule) ([]ReadResult, error) {
	r, err := newRunner(fs, ranksOf(sched))
	if err != nil {
		return nil, err
	}
	for _, op := range sched {
		if err := r.exec(op); err != nil {
			return r.reads, err
		}
	}
	return r.reads, nil
}

// RunConcurrent replays each rank's subsequence of the schedule on its own
// goroutine; program order holds within a rank while the cross-rank
// interleaving is left to the scheduler. Read results are NOT comparable
// across runs — use the pfs history hook to capture the total order that
// actually happened.
func RunConcurrent(fs *pfs.FileSystem, sched Schedule) error {
	ranks := ranksOf(sched)
	r, err := newRunner(fs, ranks)
	if err != nil {
		return err
	}
	perRank := make([]Schedule, ranks)
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
	return errors.Join(errs...)
}

// Shrink greedily minimizes a failing schedule: it repeatedly deletes
// chunks (halving the chunk size down to single ops) while fails keeps
// returning true, and returns the smallest still-failing schedule found.
// fails must be deterministic.
func Shrink(sched Schedule, fails func(Schedule) bool) Schedule {
	cur := append(Schedule(nil), sched...)
	for chunk := len(cur) / 2; chunk >= 1; chunk /= 2 {
		for i := 0; i+chunk <= len(cur); {
			cand := append(append(Schedule(nil), cur[:i]...), cur[i+chunk:]...)
			if fails(cand) {
				cur = cand
			} else {
				i += chunk
			}
		}
	}
	return cur
}

// Format renders a schedule one op per line, for failure messages.
func Format(sched Schedule) string {
	s := ""
	for i, op := range sched {
		s += fmt.Sprintf("%3d: rank %d %-8s", i, op.Rank, op.Kind)
		switch op.Kind {
		case OpWrite:
			s += fmt.Sprintf(" off=%d len=%d fill=%#02x", op.Off, len(op.Data), firstByte(op.Data))
		case OpRead:
			s += fmt.Sprintf(" off=%d len=%d", op.Off, op.Len)
		case OpTruncate:
			s += fmt.Sprintf(" len=%d", op.Len)
		}
		s += "\n"
	}
	return s
}

func firstByte(b []byte) byte {
	if len(b) == 0 {
		return 0
	}
	return b[0]
}

// BaseSeed returns the base seed for a property suite: SEMFS_PROP_SEED if
// set (decimal), else def. The chosen seed is logged either way.
func BaseSeed(tb testing.TB, def int64) int64 {
	if s := os.Getenv(SeedEnv); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			tb.Fatalf("pfstest: bad %s=%q: %v", SeedEnv, s, err)
		}
		tb.Logf("pfstest: base seed %d (from %s)", v, SeedEnv)
		return v
	}
	tb.Logf("pfstest: base seed %d (default; override with %s)", def, SeedEnv)
	return def
}

// Trials runs fn once per trial, each inside a subtest named with the
// trial's exact derived seed — a failing trial therefore reports its seed
// in the test path, and SEMFS_PROP_SEED=<seed> with SEMFS_PROP_TRIALS=1
// replays it. The trials argument is a default: SEMFS_PROP_TRIALS, when
// set, overrides it for every suite, and the effective count is logged
// alongside the base seed so a test log always states exactly what ran.
func Trials(t *testing.T, base int64, trials int, fn func(t *testing.T, rng *rand.Rand)) {
	t.Helper()
	if s := os.Getenv(TrialsEnv); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			t.Fatalf("pfstest: bad %s=%q: want a positive integer", TrialsEnv, s)
		}
		trials = v
		t.Logf("pfstest: base seed %d, %d trial(s) (from %s)", base, trials, TrialsEnv)
	} else {
		t.Logf("pfstest: base seed %d, %d trial(s) (override count with %s)", base, trials, TrialsEnv)
	}
	for i := 0; i < trials; i++ {
		seed := base + int64(i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fn(t, rand.New(rand.NewSource(seed)))
		})
	}
}
