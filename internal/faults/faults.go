// Package faults is the deterministic, seed-driven fault-injection engine
// for the simulated PFS stack. A faultSchedule is a fixed list of injectable
// faults — node crashes around commit points, torn writes, lost fsyncs,
// delayed or reordered publishes, transient I/O errors — generated entirely
// from a seed, so the same seed always yields the byte-identical schedule.
// A faultInjector arms a schedule as a pfs.FaultInjector: it counts each rank's
// eligible operations and fires every injection at its Nth eligible
// operation, which makes replay deterministic too (the simulated I/O stream
// of a rank is a pure function of the application, the simulation seed and
// the schedule). The chaos harness in this package sweeps seeds ×
// applications × consistency models and checks the invariants that must
// survive every fault (see Sweep).
package faults

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"

	"repro/internal/pfs"
	"repro/internal/sim"
)

// Kind enumerates the injectable fault taxonomy (DESIGN.md, fault model).
type Kind int

const (
	// CrashBeforeCommit kills the rank immediately before a commit (fsync)
	// takes effect: pending writes are lost.
	CrashBeforeCommit Kind = iota
	// CrashAfterCommit kills the rank after the commit published: data is
	// durable but the process never observed the completion.
	CrashAfterCommit
	// TornWrite truncates a write to its first Arg bytes (the tail never
	// reaches the data servers).
	TornWrite
	// LostFsync makes a commit a silent no-op: the call succeeds, nothing
	// durably publishes.
	LostFsync
	// DelayedPublish adds Arg nanoseconds to the publish time of the extents
	// an operation publishes (slow data-server ingest; visible only under
	// time-based eventual semantics).
	DelayedPublish
	// ReorderPublish applies a publish batch in reverse order (a server
	// replaying a commit out of order; observable only when the batch
	// self-overlaps).
	ReorderPublish
	// TransientError fails the operation with a retryable I/O error for the
	// first Arg attempts; the client's retry policy decides whether the
	// operation ultimately survives.
	TransientError

	numKinds
)

var kindNames = [...]string{
	CrashBeforeCommit: "crash-before-commit",
	CrashAfterCommit:  "crash-after-commit",
	TornWrite:         "torn-write",
	LostFsync:         "lost-fsync",
	DelayedPublish:    "delayed-publish",
	ReorderPublish:    "reorder-publish",
	TransientError:    "transient-error",
}

func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind#%d", int(k))
}

// allKinds returns every fault kind in taxonomy order.
func allKinds() []Kind {
	ks := make([]Kind, numKinds)
	for i := range ks {
		ks[i] = Kind(i)
	}
	return ks
}

// class partitions operations into eligibility classes: each fault kind
// targets one class, and each rank counts its operations per class, so "the
// Nth eligible operation" is well defined and replay-stable.
type class int

const (
	classWrite   class = iota // write operations
	classData                 // write + read operations
	classCommit               // commit (fsync) operations
	classPublish              // commit + close (publish points)
	numClasses
)

func (k Kind) class() class {
	switch k {
	case TornWrite, DelayedPublish:
		return classWrite
	case TransientError:
		return classData
	case CrashBeforeCommit, CrashAfterCommit, LostFsync:
		return classCommit
	case ReorderPublish:
		return classPublish
	}
	return classData
}

// matches reports whether an operation kind belongs to a class.
func (c class) matches(op pfs.OpKind) bool {
	switch c {
	case classWrite:
		return op == pfs.OpWrite
	case classData:
		return op == pfs.OpWrite || op == pfs.OpRead
	case classCommit:
		return op == pfs.OpCommit
	case classPublish:
		return op == pfs.OpCommit || op == pfs.OpClose
	}
	return false
}

// faultInjection is one scheduled fault: on rank Rank, at the Nth (1-based)
// operation eligible for Kind's class, fire Kind with parameter Arg.
type faultInjection struct {
	Rank int
	Kind Kind
	N    int
	// Arg parameterizes the kind: bytes kept for TornWrite, delay in
	// nanoseconds for DelayedPublish, failing attempts for TransientError.
	Arg uint64
}

func (in faultInjection) String() string {
	return fmt.Sprintf("rank=%d kind=%s n=%d arg=%d", in.Rank, in.Kind, in.N, in.Arg)
}

// faultSchedule is a deterministic fault plan: the seed it was generated from
// plus the injections. Equal seeds and options produce byte-identical
// schedules (see encode), the contract the chaos harness re-checks on every
// cell.
type faultSchedule struct {
	Seed       uint64
	Injections []faultInjection
}

// genOptions bounds schedule generation.
type genOptions struct {
	// Ranks is the job size injections target (required, > 0).
	Ranks int
	// Kinds restricts the fault taxonomy drawn from; nil means all kinds.
	Kinds []Kind
	// Count is the number of injections (default: max(2, Ranks/2)).
	Count int
	// MaxNth bounds the eligible-operation index N (default 6).
	MaxNth int
}

// generate derives a schedule from a seed. All randomness flows through a
// splitmix64 generator seeded with seed, so the same (seed, options) pair
// yields the identical schedule on every run, machine and Go version.
func generate(seed uint64, o genOptions) faultSchedule {
	if o.Ranks <= 0 {
		o.Ranks = 1
	}
	kinds := o.Kinds
	if len(kinds) == 0 {
		kinds = allKinds()
	}
	if o.Count <= 0 {
		o.Count = o.Ranks / 2
		if o.Count < 2 {
			o.Count = 2
		}
	}
	if o.MaxNth <= 0 {
		o.MaxNth = 6
	}
	rng := sim.NewRNG(seed).Split(0xFA017)
	s := faultSchedule{Seed: seed, Injections: make([]faultInjection, 0, o.Count)}
	for i := 0; i < o.Count; i++ {
		k := kinds[rng.Intn(len(kinds))]
		inj := faultInjection{
			Rank: rng.Intn(o.Ranks),
			Kind: k,
			N:    1 + rng.Intn(o.MaxNth),
		}
		switch k {
		case TornWrite:
			inj.Arg = uint64(1 + rng.Intn(512))
		case DelayedPublish:
			inj.Arg = uint64(1+rng.Intn(10)) * 1_000_000 // 1–10 ms
		case TransientError:
			inj.Arg = uint64(1 + rng.Intn(5))
		}
		s.Injections = append(s.Injections, inj)
	}
	return s
}

// encode renders the schedule in a canonical byte form: the determinism
// contract is that equal seeds produce equal encode outputs.
func (s faultSchedule) encode() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule seed=%d n=%d\n", s.Seed, len(s.Injections))
	for _, in := range s.Injections {
		b.WriteString(in.String())
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// fingerprint hashes the canonical encoding (FNV-1a 64).
func (s faultSchedule) fingerprint() uint64 {
	h := fnv.New64a()
	h.Write(s.encode())
	return h.Sum64()
}

// faultEvent records one fired fault.
type faultEvent struct {
	Rank int
	Kind Kind
	Op   pfs.OpKind
	Path string
	Now  uint64
}

func (e faultEvent) String() string {
	return fmt.Sprintf("rank=%d %s at %s(%s) t=%d", e.Rank, e.Kind, e.Op, e.Path, e.Now)
}

type slotKey struct {
	rank int
	cls  class
	n    int
}

type countKey struct {
	rank int
	cls  class
}

// faultInjector arms a faultSchedule as a pfs.FaultInjector. It is safe for
// concurrent use (ranks intercept under the file system lock, but the
// injector carries its own mutex so it never relies on that). Use a fresh
// faultInjector per run; fired events accumulate per rank in firing order, which
// is deterministic for a deterministic run.
type faultInjector struct {
	mu      sync.Mutex
	pending map[slotKey][]faultInjection
	counts  map[countKey]int
	// transientLeft tracks, per rank, how many further attempts of the
	// in-flight operation still fail (each rank runs one operation at a
	// time, so a single counter per rank suffices).
	transientLeft map[int]int
	crashed       map[int]bool
	events        map[int][]faultEvent
	fired         int
	// scheduled/firedBy tally injections per kind; their difference is the
	// suppressed count the chaos report breaks out.
	scheduled [numKinds]int
	firedBy   [numKinds]int
}

// newFaultInjector arms a schedule.
func newFaultInjector(s faultSchedule) *faultInjector {
	inj := &faultInjector{
		pending:       make(map[slotKey][]faultInjection),
		counts:        make(map[countKey]int),
		transientLeft: make(map[int]int),
		crashed:       make(map[int]bool),
		events:        make(map[int][]faultEvent),
	}
	for _, in := range s.Injections {
		k := slotKey{rank: in.Rank, cls: in.Kind.class(), n: in.N}
		inj.pending[k] = append(inj.pending[k], in)
		if in.Kind >= 0 && in.Kind < numKinds {
			inj.scheduled[in.Kind]++
		}
	}
	return inj
}

// Intercept implements pfs.FaultInjector.
func (inj *faultInjector) Intercept(op pfs.OpInfo) pfs.FaultAction {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if op.Attempt > 0 {
		// Retry of an operation we failed transiently: keep failing until
		// the scheduled attempt budget is spent.
		if inj.transientLeft[op.Rank] > 0 {
			inj.transientLeft[op.Rank]--
			return pfs.FaultAction{Transient: true}
		}
		return pfs.FaultAction{}
	}
	if inj.crashed[op.Rank] {
		return pfs.FaultAction{}
	}
	var act pfs.FaultAction
	for c := class(0); c < numClasses; c++ {
		if !c.matches(op.Kind) {
			continue
		}
		ck := countKey{rank: op.Rank, cls: c}
		inj.counts[ck]++
		sk := slotKey{rank: op.Rank, cls: c, n: inj.counts[ck]}
		for _, in := range inj.pending[sk] {
			inj.apply(in, op, &act)
		}
		delete(inj.pending, sk)
	}
	return act
}

// apply folds one firing injection into the action.
func (inj *faultInjector) apply(in faultInjection, op pfs.OpInfo, act *pfs.FaultAction) {
	switch in.Kind {
	case CrashBeforeCommit:
		act.CrashBefore = true
		inj.crashed[op.Rank] = true
	case CrashAfterCommit:
		act.CrashAfter = true
		inj.crashed[op.Rank] = true
	case TornWrite:
		act.Torn = true
		keep := int64(in.Arg)
		if keep >= op.Len && op.Len > 0 {
			keep = op.Len - 1 // a torn write always loses at least one byte
		}
		if act.TornKeep == 0 || keep < act.TornKeep {
			act.TornKeep = keep
		}
	case LostFsync:
		act.DropCommit = true
	case DelayedPublish:
		if in.Arg > act.PublishDelay {
			act.PublishDelay = in.Arg
		}
	case ReorderPublish:
		act.ReorderPublish = true
	case TransientError:
		act.Transient = true
		if in.Arg > 1 {
			inj.transientLeft[op.Rank] = int(in.Arg) - 1
		}
	}
	inj.fired++
	if in.Kind >= 0 && in.Kind < numKinds {
		inj.firedBy[in.Kind]++
	}
	inj.events[op.Rank] = append(inj.events[op.Rank], faultEvent{
		Rank: op.Rank, Kind: in.Kind, Op: op.Kind, Path: op.Path, Now: op.Now,
	})
}

// firedCount returns how many injections have fired so far.
func (inj *faultInjector) firedCount() int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.fired
}

// KindTally reports, for one fault kind, how many injections the armed
// schedule planned versus how many actually fired.
type KindTally struct {
	Kind      Kind
	Scheduled int
	Fired     int
}

// suppressed counts scheduled injections that never fired: the target rank
// never reached the Nth eligible operation (short run, or the rank was
// already dead from an earlier crash injection).
func (t KindTally) suppressed() int { return t.Scheduled - t.Fired }

// kindTallies returns the per-kind scheduled/fired counts in taxonomy
// order, including kinds with zero scheduled injections.
func (inj *faultInjector) kindTallies() []KindTally {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make([]KindTally, numKinds)
	for k := Kind(0); k < numKinds; k++ {
		out[k] = KindTally{Kind: k, Scheduled: inj.scheduled[k], Fired: inj.firedBy[k]}
	}
	return out
}

// eventsByRank returns a copy of the fired events, per rank in firing order.
func (inj *faultInjector) eventsByRank() map[int][]faultEvent {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make(map[int][]faultEvent, len(inj.events))
	for r, es := range inj.events {
		out[r] = append([]faultEvent(nil), es...)
	}
	return out
}

// crashedRanks returns the ranks a crash injection killed, sorted.
func (inj *faultInjector) crashedRanks() []int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make([]int, 0, len(inj.crashed))
	for r := range inj.crashed {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// eventLog renders every fired event in (rank, firing order), the canonical
// form the replay-determinism check compares.
func (inj *faultInjector) eventLog() string {
	byRank := inj.eventsByRank()
	ranks := make([]int, 0, len(byRank))
	for r := range byRank {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	var b strings.Builder
	for _, r := range ranks {
		for _, e := range byRank[r] {
			b.WriteString(e.String())
			b.WriteByte('\n')
		}
	}
	return b.String()
}
