package storage

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/sim"
)

// The flaky backend wraps any other backend and fires seed-deterministic
// injected faults, mirroring internal/faults' schedule discipline: a
// Schedule is a fixed list of injections generated entirely from a seed,
// each firing at the Nth eligible operation of its class, so the same seed
// always yields the same fault sequence for the same operation stream.
//
// Fault contract the retry policy leans on: FaultTransient fails the
// operation *before* it reaches the wrapped backend — a retry is
// side-effect-safe. faultTorn mutates state (half the
// write lands) and therefore returns a permanent error; faultLostSync
// succeeds without syncing (the durability lie a broken disk tells), also
// not retryable because the caller cannot see it at all.

// FaultKind enumerates injectable storage faults.
type FaultKind int

const (
	// faultLatency sleeps Arg nanoseconds before the operation proceeds —
	// a slow backend, not a broken one.
	faultLatency FaultKind = iota
	// FaultTransient fails the operation with errTransient before it
	// touches the wrapped backend; the next Arg-1 operations of the same
	// class fail too (a blip, not a single lost packet).
	FaultTransient
	// faultTorn writes only the first half of the payload to the wrapped
	// backend, then fails permanently — the classic torn write.
	faultTorn
	// faultLostSync makes a Sync succeed without syncing: the caller
	// believes in durability that does not exist.
	faultLostSync

	numFaultKinds
)

var faultKindNames = [...]string{
	faultLatency:   "latency",
	FaultTransient: "transient",
	faultTorn:      "torn-write",
	faultLostSync:  "lost-sync",
}

func (k FaultKind) String() string {
	if k >= 0 && int(k) < len(faultKindNames) {
		return faultKindNames[k]
	}
	return fmt.Sprintf("faultkind#%d", int(k))
}

// opClass partitions backend operations for Nth-eligible-op counting.
type opClass int

const (
	classWrite opClass = iota // File.Write / File.WriteAt
	classSync                 // File.Sync
	classAny                  // either of the above
	numOpClasses
)

func (k FaultKind) class() opClass {
	switch k {
	case faultTorn:
		return classWrite
	case faultLatency, faultLostSync:
		return classSync
	case FaultTransient:
		return classAny
	}
	return classAny
}

// faultInjection is one scheduled fault: at the Nth (1-based) eligible
// operation of Kind's class, fire Kind with parameter Arg.
type faultInjection struct {
	Kind FaultKind
	N    int
	Arg  uint64
}

func (in faultInjection) String() string {
	return fmt.Sprintf("kind=%s n=%d arg=%d", in.Kind, in.N, in.Arg)
}

// Schedule is a deterministic storage-fault plan. WedgeAfter > 0 turns the
// backend persistently unhealthy after that many eligible operations:
// every subsequent write or sync fails with errTransient forever, the
// shape that exhausts the retry policy and drives the WAL down its
// degradation ladder to write-through.
type Schedule struct {
	Seed       uint64
	WedgeAfter int
	Injections []faultInjection
}

// Encode renders the schedule canonically; equal seeds and options produce
// equal encodings (the determinism contract, same as faults.Schedule).
func (s Schedule) Encode() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "storage schedule seed=%d wedge=%d n=%d\n", s.Seed, s.WedgeAfter, len(s.Injections))
	for _, in := range s.Injections {
		b.WriteString(in.String())
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// GenOptions bounds storage-fault schedule generation.
type GenOptions struct {
	// Count is the number of injections (default 4).
	Count int
	// Kinds restricts the taxonomy; nil means all kinds.
	Kinds []FaultKind
}

// genMaxNth bounds the random spacing between generated injection indices
// N: the first injection of each op class lands within the first genMaxNth
// eligible operations, each later same-class injection within genMaxNth
// counted ops of the previous one.
const genMaxNth = 12

// GenSchedule derives a schedule from a seed. All randomness flows through
// a splitmix64 stream seeded with seed, so the same (seed, options) pair
// yields the identical schedule on every run and machine.
func GenSchedule(seed uint64, o GenOptions) Schedule {
	if o.Count <= 0 {
		o.Count = 4
	}
	kinds := o.Kinds
	if len(kinds) == 0 {
		kinds = []FaultKind{faultLatency, FaultTransient, faultTorn, faultLostSync}
	}
	rng := sim.NewRNG(seed).Split(0x57047A6E) // "STORAGE"
	s := Schedule{Seed: seed}
	// Same-class injections are spaced ≥ 3 counted ops apart. That caps the
	// consecutive failures any single retried operation can face at one
	// transient blip (Arg ≤ 3, counting its trigger) — by the time the blip
	// budget drains and the op counters advance again, the gap guarantees no
	// further injection is waiting at the next index. Generated
	// transient-only schedules therefore always converge under the retry
	// policy's default budget (5 attempts > 3 failures), the property
	// TestRetryTransientOnlyConverges pins.
	var nextN [numOpClasses]int
	for i := 0; i < o.Count; i++ {
		k := kinds[rng.Intn(len(kinds))]
		c := k.class()
		n := nextN[c] + 1 + rng.Intn(genMaxNth)
		nextN[c] = n + 2
		inj := faultInjection{Kind: k, N: n}
		switch k {
		case faultLatency:
			inj.Arg = uint64(200_000 + rng.Intn(1_800_000)) // 0.2–2 ms
		case FaultTransient:
			inj.Arg = uint64(1 + rng.Intn(3))
		}
		s.Injections = append(s.Injections, inj)
	}
	return s
}

// TransientOnly reports whether every injection in the schedule is
// convergent under retry (latency and bounded transient errors only) and
// the backend never wedges — the precondition for the "no degradation"
// property the policy tests assert.
func (s Schedule) TransientOnly() bool {
	if s.WedgeAfter > 0 {
		return false
	}
	for _, in := range s.Injections {
		if in.Kind != faultLatency && in.Kind != FaultTransient {
			return false
		}
	}
	return true
}

// flakyStats counts what a flaky backend actually did.
type flakyStats struct {
	Ops   int64 // eligible operations observed
	Fired int64 // injections fired
}

type flaky struct {
	inner Backend
	sched Schedule

	mu            sync.Mutex
	counts        [numOpClasses]int
	pending       map[[2]int][]faultInjection // {class, n} → injections
	streak        map[string]int              // path → consecutive failed ops
	transientLeft [numOpClasses]int
	wedged        bool
	stats         flakyStats
}

// NewFlaky wraps inner with a fault schedule.
func NewFlaky(inner Backend, sched Schedule) Backend {
	f := &flaky{inner: inner, sched: sched, pending: map[[2]int][]faultInjection{}, streak: map[string]int{}}
	for _, in := range sched.Injections {
		k := [2]int{int(in.Kind.class()), in.N}
		f.pending[k] = append(f.pending[k], in)
	}
	return f
}

func (f *flaky) Name() string    { return "flaky(" + f.inner.Name() + ")" }
func (f *flaky) Unwrap() Backend { return f.inner }

// action is what the schedule decided for one operation.
type action struct {
	latency  time.Duration
	fail     bool // errTransient before the op executes
	torn     bool // write half, then permanent error
	lostSync bool // skip the sync, report success
}

// maxFailStreak bounds the consecutive failed operations on one path below
// the retry policy's default attempt budget.
const maxFailStreak = maxAttempts - 1

// decide counts one eligible operation of class c on path and folds every
// firing injection into an action.
//
// The schedule's spacing keeps a lone caller's consecutive failures below
// the retry budget, but callers sharing the backend advance the counters
// between one caller's retries, so a retried operation could meet blip
// after blip and exhaust the budget under a transient-only schedule. A
// path that has failed maxFailStreak times in a row therefore passes its
// next operation untouched: it consumes no blip and does not advance the
// schedule. A wedged backend still fails everything.
func (f *flaky) decide(c opClass, path string) action {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.Ops++
	if !f.wedged && f.streak[path] >= maxFailStreak {
		delete(f.streak, path)
		return action{}
	}
	act := f.schedule(c)
	if act.fail {
		f.streak[path]++
	} else {
		delete(f.streak, path)
	}
	return act
}

// schedule advances the schedule by one operation of class c; f.mu is held.
func (f *flaky) schedule(c opClass) action {
	var act action
	// Pending transient budget first: while a blip is live, operations of
	// its class fail without advancing the schedule (a retry storm must not
	// shift later injections).
	if f.transientLeft[c] > 0 {
		f.transientLeft[c]--
		act.fail = true
		return act
	}
	if f.transientLeft[classAny] > 0 {
		f.transientLeft[classAny]--
		act.fail = true
		return act
	}
	for _, cl := range []opClass{c, classAny} {
		f.counts[cl]++
		for _, in := range f.pending[[2]int{int(cl), f.counts[cl]}] {
			if in.Kind.class() != cl {
				continue
			}
			f.apply(in, &act)
		}
		delete(f.pending, [2]int{int(cl), f.counts[cl]})
	}
	if f.sched.WedgeAfter > 0 && f.counts[classAny] > f.sched.WedgeAfter {
		f.wedged = true
	}
	if f.wedged {
		act = action{fail: true}
		f.stats.Fired++
	}
	return act
}

func (f *flaky) apply(in faultInjection, act *action) {
	f.stats.Fired++
	switch in.Kind {
	case faultLatency:
		d := time.Duration(in.Arg)
		if d > act.latency {
			act.latency = d
		}
	case FaultTransient:
		act.fail = true
		if in.Arg > 1 {
			f.transientLeft[classAny] += int(in.Arg) - 1
		}
	case faultTorn:
		act.torn = true
	case faultLostSync:
		act.lostSync = true
	}
}

// Stats snapshots the backend's activity.
func (f *flaky) Stats() flakyStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Wedged reports whether the schedule has turned the backend persistently
// unhealthy.
func (f *flaky) Wedged() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.wedged
}

func (f *flaky) Open(path string, flags int, perm uint32) (File, error) {
	inner, err := f.inner.Open(path, flags, perm)
	if err != nil {
		return nil, err
	}
	return &flakyFile{inner: inner, b: f}, nil
}

func (f *flaky) ReadFile(path string) ([]byte, error) { return f.inner.ReadFile(path) }
func (f *flaky) Stat(path string) (int64, error)      { return f.inner.Stat(path) }
func (f *flaky) MkdirAll(path string) error           { return f.inner.MkdirAll(path) }
func (f *flaky) List(dir string) ([]string, error)    { return f.inner.List(dir) }
func (f *flaky) Remove(path string) error             { return f.inner.Remove(path) }

type flakyFile struct {
	inner File
	b     *flaky
}

func (ff *flakyFile) Read(p []byte) (int, error)              { return ff.inner.Read(p) }
func (ff *flakyFile) ReadAt(p []byte, off int64) (int, error) { return ff.inner.ReadAt(p, off) }
func (ff *flakyFile) Seek(off int64, w int) (int64, error)    { return ff.inner.Seek(off, w) }
func (ff *flakyFile) Truncate(size int64) error               { return ff.inner.Truncate(size) }
func (ff *flakyFile) Name() string                            { return ff.inner.Name() }
func (ff *flakyFile) Close() error                            { return ff.inner.Close() }

func (ff *flakyFile) Write(p []byte) (int, error) {
	act := ff.b.decide(classWrite, ff.inner.Name())
	if act.latency > 0 {
		time.Sleep(act.latency)
	}
	if act.fail {
		return 0, fmt.Errorf("%w: injected write failure (%s)", errTransient, ff.inner.Name())
	}
	if act.torn {
		n, _ := ff.inner.Write(p[:len(p)/2])
		return n, fmt.Errorf("storage: injected torn write (%s): %d of %d bytes landed", ff.inner.Name(), n, len(p))
	}
	return ff.inner.Write(p)
}

func (ff *flakyFile) WriteAt(p []byte, off int64) (int, error) {
	act := ff.b.decide(classWrite, ff.inner.Name())
	if act.latency > 0 {
		time.Sleep(act.latency)
	}
	if act.fail {
		return 0, fmt.Errorf("%w: injected write failure (%s)", errTransient, ff.inner.Name())
	}
	if act.torn {
		n, _ := ff.inner.WriteAt(p[:len(p)/2], off)
		return n, fmt.Errorf("storage: injected torn write (%s): %d of %d bytes landed", ff.inner.Name(), n, len(p))
	}
	return ff.inner.WriteAt(p, off)
}

func (ff *flakyFile) Sync() error {
	act := ff.b.decide(classSync, ff.inner.Name())
	if act.latency > 0 {
		time.Sleep(act.latency)
	}
	if act.fail {
		return fmt.Errorf("%w: injected sync failure (%s)", errTransient, ff.inner.Name())
	}
	if act.lostSync {
		return nil // the lie: success without durability
	}
	return ff.inner.Sync()
}
