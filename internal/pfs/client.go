package pfs

import (
	"fmt"

	"repro/internal/payload"
	"repro/internal/sim"
)

// Client is one process's view of the file system. A client always observes
// its own writes in program order; what it observes of *other* processes'
// writes depends on the consistency model. Clients are not safe for
// concurrent use — each simulated rank owns exactly one.
type Client struct {
	fs      *FileSystem
	rank    int
	pending map[string][]extent // written but not yet published, per path
	crashed bool
}

// NewClient creates the client for a rank.
func (fs *FileSystem) NewClient(rank int) *Client {
	return &Client{fs: fs, rank: rank, pending: make(map[string][]extent)}
}

// FS returns the shared file system this client talks to.
func (c *Client) FS() *FileSystem { return c.fs }

// Handle is an open file description.
type Handle struct {
	c        *Client
	id       uint64 // open-description identity in the operation history
	path     string
	openSeq  uint64 // publish sequence snapshot at open (session visibility)
	closed   bool
	readable bool
	writable bool
}

// Path returns the file path this handle refers to.
func (h *Handle) Path() string { return h.path }

// Open flag bits (match recorder's conventional values).
const (
	ORdonly = 0x0
	OWronly = 0x1
	ORdwr   = 0x2
	OCreat  = 0x40
	OTrunc  = 0x200

	accessMask = 0x3
)

// call is one client operation in flight: the history event that
// describes it, built once when the call starts and recorded however the
// call ends, and the fault action the injector chose for it.
type call struct {
	c   *Client
	h   *Handle // nil for Open
	ev  HistoryEvent
	act FaultAction
}

// startLocked describes a call of the given kind on h into the zero call
// k and guards it (see guardLocked). off is the offset, or the new length
// of a truncate; n is the write's or the requested read's length. Callers
// hold fs.mu.
func (k *call) startLocked(h *Handle, kind OpKind, off, n int64, now uint64) error {
	k.c, k.h = h.c, h
	// Field by field: a composite literal would be built aside and copied.
	ev := &k.ev
	ev.Kind, ev.Rank, ev.Path, ev.Handle = kind, h.c.rank, h.path, h.id
	ev.Off, ev.Len, ev.Now = off, n, now
	return k.guardLocked()
}

// guardLocked is the one check every call passes: a crashed client, a
// closed handle, or a handle not open for the access a write or read needs
// rejects the call, and the rejection is recorded. Callers hold fs.mu.
func (k *call) guardLocked() error {
	var err error
	switch h := k.h; {
	case k.c.crashed:
		// A dead process changes nothing; the attempt is still history.
		err = ErrCrashed
	case h == nil:
	case h.closed:
		err = errClosed
	case k.ev.Kind == OpWrite && !h.writable:
		err = errReadOnly
	case k.ev.Kind == OpRead && !h.readable:
		err = errWriteOnly
	}
	if err != nil {
		return k.failLocked(err)
	}
	return nil
}

// beginLocked is the fault injector's one entry point: it consults the
// injector, kills the client before the call if asked, and retries a
// transient failure up to maxRetries times with a doubling backoff. The
// call's action is the merge of every attempt's (see FaultAction.merge),
// so a fault that fires with a transient error still acts once a retry
// succeeds. It returns cost plus the backoff paid, or 0 for a call that
// crashed. A call that fails here is recorded. Callers hold fs.mu.
func (k *call) beginLocked(cost uint64) (uint64, error) {
	fs := k.c.fs
	if fs.injector == nil {
		return cost, nil
	}
	op := OpInfo{Kind: k.ev.Kind, Rank: k.c.rank, Path: k.ev.Path, Off: k.ev.Off, Len: k.ev.Len, Now: k.ev.Now}
	backoff := retryBackoffNS
	for ; ; op.Attempt++ {
		act := fs.interceptLocked(op)
		k.act.merge(act)
		if act.CrashBefore {
			k.c.crashLocked()
			return 0, k.failLocked(ErrCrashed)
		}
		if !act.Transient {
			return cost, nil
		}
		if op.Attempt == maxRetries {
			fs.stats.TransientErrors++
			return cost, fmt.Errorf("%v %s: %w", op.Kind, op.Path, k.failLocked(ErrTransient))
		}
		cost += backoff
		backoff *= 2
		fs.stats.Retries++
	}
}

// failLocked records the call as failed with err and returns err.
func (k *call) failLocked(err error) error {
	k.ev.Err = errString(err)
	k.c.fs.recordHistoryLocked(&k.ev)
	return err
}

// endLocked records the call as done at the given cost, then applies a
// crash the injector scheduled for after the call: the call took effect,
// but the process never observed its completion.
func (k *call) endLocked(cost uint64) (uint64, error) {
	observeOp(k.ev.Kind, cost)
	k.c.fs.recordHistoryLocked(&k.ev)
	if k.act.CrashAfter {
		k.c.crashLocked()
		return cost, ErrCrashed
	}
	return cost, nil
}

// Open opens path with POSIX-style flags at simulation time now, returning
// the handle and the simulated cost of the operation.
func (c *Client) Open(path string, flags int, now uint64) (*Handle, uint64, error) {
	fs := c.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	k := call{c: c, ev: HistoryEvent{Kind: OpOpen, Rank: c.rank, Path: path, Flags: flags, Now: now}}
	if err := k.guardLocked(); err != nil {
		return nil, 0, fmt.Errorf("open %s: %w", path, err)
	}
	cost := sim.MetaRPC + sim.OpenCost
	f, err := fs.ensure(path, flags&OCreat != 0)
	if err == nil && flags&OTrunc != 0 && f.laminated {
		err = ErrLaminated
	}
	if err != nil {
		return nil, cost, fmt.Errorf("open %s: %w", path, k.failLocked(err))
	}
	if flags&OTrunc != 0 {
		f.truncateLocked(0)
		delete(c.pending, path) // truncation discards this client's unpublished writes too
	}
	if f.openers == nil {
		f.openers = make(map[int32]bool)
	}
	f.openers[int32(c.rank)] = true
	acc := flags & accessMask
	fs.nextHandle++
	h := &Handle{
		c:        c,
		id:       fs.nextHandle,
		path:     path,
		openSeq:  fs.pubSeq,
		readable: acc == ORdonly || acc == ORdwr,
		writable: acc == OWronly || acc == ORdwr,
	}
	k.ev.Handle = h.id
	k.endLocked(cost)
	return h, cost, nil
}

// visibleLocked returns the visibility predicate for this handle under the
// file system's consistency model. Callers hold fs.mu. A laminated file's
// published content is visible to everyone regardless of the model
// (UnifyFS lamination renders the file permanently read-only and globally
// visible, §3.2).
func (h *Handle) visibleLocked(now uint64) func(*extent) bool {
	if f, err := h.c.fs.ensure(h.path, false); err == nil && f.laminated {
		return func(*extent) bool { return true }
	}
	switch h.c.fs.opts.Semantics {
	case Strong, Commit:
		// Everything published is visible. (The models differ in *when*
		// publishing happens, not in read-side filtering.)
		return func(*extent) bool { return true }
	case Session:
		openSeq := h.openSeq
		return func(e *extent) bool { return e.seq <= openSeq }
	case Eventual:
		delay := h.c.fs.opts.EventualDelay
		rank := int32(h.c.rank)
		// Own writes are always visible (per-process ordering); remote
		// writes propagate after the delay.
		return func(e *extent) bool { return e.writer == rank || e.pubTime+delay <= now }
	default:
		panic("pfs: unknown semantics")
	}
}

// Write stores data at offset off at simulation time now. Under strong
// semantics the write publishes immediately (paying the range-lock cost);
// under commit/session it is buffered pending a commit/close; under eventual
// it publishes with a propagation delay.
//
// The file system keeps the payload as it is: a fill reference stays a
// reference, and a Bytes payload's buffer is kept (and handed to the
// history as Data) without a copy, so the caller must not modify it after
// the call. The file system never modifies it either, so one buffer may be
// written more than once, and a buffer that failed to write stays the
// caller's.
func (h *Handle) Write(off int64, data payload.P, now uint64) (uint64, error) {
	fs := h.c.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var k call
	if err := k.startLocked(h, OpWrite, off, data.Len(), now); err != nil {
		return 0, err
	}
	f, err := fs.ensure(h.path, false)
	if err == nil && f.laminated {
		err = ErrLaminated
	}
	if err != nil {
		return 0, k.failLocked(err)
	}
	cost, err := k.beginLocked(sim.IOCost(data.Len()))
	if err != nil {
		return cost, err
	}
	if k.act.Torn && k.act.TornKeep < data.Len() {
		data = data.Slice(0, max(k.act.TornKeep, 0))
	}
	e := extent{off: off, data: data, writer: int32(h.c.rank)} // the caller's payload, not a copy (see Write)
	switch fs.opts.Semantics {
	case Strong:
		cost += fs.lockCostLocked(f)
		fs.publishBatchLocked(f, []extent{e}, now, k.act)
	case Commit, Session:
		h.c.pending[h.path] = append(h.c.pending[h.path], e)
	case Eventual:
		fs.publishBatchLocked(f, []extent{e}, now, k.act)
	}
	// A crash-after write is recorded as successful: the data landed on the
	// servers even though the process never observed the completion. The
	// history holds the bytes the write kept, made only for a recorder.
	k.ev.Len = data.Len()
	if fs.history != nil {
		k.ev.Data = data.Materialize()
	}
	return k.endLocked(cost)
}

// lockCostLocked models the distributed range-lock acquisition that strong
// semantics requires (Section 3.1): one lock-manager round trip per data
// operation. Contention is tallied in the stats (LockContended counts
// acquisitions that found other processes sharing the file) but kept out of
// the charged cost so logical time stays independent of goroutine
// scheduling — simulated runs are reproducible, and the strong-vs-relaxed
// gap is the per-operation lock round trip itself.
func (fs *FileSystem) lockCostLocked(f *file) uint64 {
	fs.stats.LockAcquires++
	f.acquires++
	return sim.LockRPC
}

// Read returns up to n bytes from offset off as visible to this handle at
// time now. Bytes inside the visible size that no visible extent covers read
// as zero (holes). The returned length is min(n, visibleSize-off), never
// negative. A range that one reference extent covers reads as a slice of
// that reference, so no byte of it is made; any other range reads as fresh
// bytes, which the caller owns.
func (h *Handle) Read(off, n int64, now uint64) (payload.P, uint64, error) {
	fs := h.c.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var k call
	if err := k.startLocked(h, OpRead, off, n, now); err != nil {
		return payload.P{}, 0, err
	}
	f, err := fs.ensure(h.path, false)
	if err != nil {
		return payload.P{}, 0, k.failLocked(err)
	}
	cost, err := k.beginLocked(sim.IOCost(n))
	if err != nil {
		return payload.P{}, cost, err
	}
	if fs.opts.Semantics == Strong {
		cost += fs.lockCostLocked(f)
	}
	own := h.c.pending[h.path]
	if fs.opts.UnorderedSameProcess && len(own) > 1 {
		// BurstFS-style: same-process overlapping writes resolve in an
		// undefined order; model the worst case by overlaying the client's
		// pending writes newest-first, so the oldest write wins overlaps.
		rev := make([]extent, len(own))
		for i, e := range own {
			rev[len(own)-1-i] = e
		}
		own = rev
	}
	data := read(f, off, n, h.visibleLocked(now), own)
	if data.Len() > 0 && fs.history != nil {
		// The history's bytes are its own, apart from the reader's.
		k.ev.Data = data.Clone().Materialize()
	}
	cost, err = k.endLocked(cost)
	return data, cost, err
}

// VisibleSize returns the file size as visible to this handle at time now:
// the maximum end offset over visible published extents and the client's own
// pending extents, the same end a read resolves against. POSIX append mode
// and SEEK_END resolve against this. A truncate that extends a file is not
// modelled as visible size (DESIGN.md §12).
func (h *Handle) VisibleSize(now uint64) int64 {
	fs := h.c.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, err := fs.ensure(h.path, false)
	if err != nil {
		return 0
	}
	size, _ := visibleScan(f, 0, 0, h.visibleLocked(now), h.c.pending[h.path])
	return size
}

// Commit publishes this client's pending writes to the file (the commit
// operation of commit semantics: fsync/fdatasync). Under session semantics
// fsync persists data but does not make it visible to other processes, so
// pending writes stay pending. Under strong/eventual there is nothing to
// publish. Returns the simulated cost.
func (h *Handle) Commit(now uint64) (uint64, error) {
	fs := h.c.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var k call
	if err := k.startLocked(h, OpCommit, 0, 0, now); err != nil {
		return 0, err
	}
	cost, err := k.beginLocked(sim.SyncCost)
	if err != nil {
		return cost, err
	}
	if fs.opts.Semantics != Commit {
		return k.endLocked(cost)
	}
	f, err := fs.ensure(h.path, false)
	if err != nil {
		return cost, k.failLocked(err)
	}
	if k.act.DropCommit {
		// Lost fsync: the sync "succeeds" but nothing durably publishes —
		// the silent failure mode commit-semantics protocols must tolerate.
		// The history marks it as failed so the checker treats it as the
		// no-op it server-side was.
		k.failLocked(errDroppedCommit)
		return cost, nil
	}
	fs.publishBatchLocked(f, h.c.pending[h.path], now, k.act)
	delete(h.c.pending, h.path)
	return k.endLocked(cost)
}

// Close closes the handle. Under commit and session semantics closing
// publishes the client's pending writes (close acts as a commit, and session
// visibility is close-to-open). A process that dies before close never ends
// its session: its pending writes are lost. Returns the simulated cost.
func (h *Handle) Close(now uint64) (uint64, error) {
	fs := h.c.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var k call
	if err := k.startLocked(h, OpClose, 0, 0, now); err != nil {
		return 0, err
	}
	h.closed = true
	cost, err := k.beginLocked(sim.CloseCost + sim.MetaRPC)
	if err != nil {
		return cost, err
	}
	f, err := fs.ensure(h.path, false)
	if err != nil {
		return cost, k.failLocked(err)
	}
	switch fs.opts.Semantics {
	case Commit, Session:
		fs.publishBatchLocked(f, h.c.pending[h.path], now, k.act)
		delete(h.c.pending, h.path)
	}
	return k.endLocked(cost)
}

// Laminate implements UnifyFS's lamination (§3.2): the client's pending
// writes publish, and the file becomes permanently read-only with its
// content globally visible under every consistency model. Returns the
// simulated cost (a sync plus a metadata round trip).
func (h *Handle) Laminate(now uint64) (uint64, error) {
	fs := h.c.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var k call
	if err := k.startLocked(h, OpLaminate, 0, 0, now); err != nil {
		return 0, err
	}
	cost := sim.SyncCost + sim.MetaRPC
	f, err := fs.ensure(h.path, false)
	if err != nil {
		return cost, k.failLocked(err)
	}
	fs.publishLocked(f, h.c.pending[h.path], now)
	delete(h.c.pending, h.path)
	f.laminated = true
	return k.endLocked(cost)
}

// Truncate sets the file length; the change is immediately visible in all
// models (metadata-path operation).
func (h *Handle) Truncate(length int64) (uint64, error) {
	fs := h.c.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var k call
	if err := k.startLocked(h, OpTruncate, length, 0, 0); err != nil {
		return 0, err
	}
	f, err := fs.ensure(h.path, false)
	if err == nil && f.laminated {
		err = ErrLaminated
	}
	if err != nil {
		return sim.MetaRPC, k.failLocked(err)
	}
	f.truncateLocked(length)
	// Drop this client's pending extents beyond the new length.
	kept := h.c.pending[h.path][:0]
	for _, e := range h.c.pending[h.path] {
		if e.off >= length {
			continue
		}
		if e.end() > length {
			e.data = e.data.Slice(0, length-e.off)
		}
		kept = append(kept, e)
	}
	if len(kept) == 0 {
		delete(h.c.pending, h.path)
	} else {
		h.c.pending[h.path] = kept
	}
	return k.endLocked(sim.MetaRPC)
}

// Crash simulates the client's process dying: all unpublished (pending)
// writes are lost and its handles become unusable. Under commit/session
// semantics this is exactly the data a checkpoint loses when a node fails
// before fsync/close — the durability flip side of buffering writes that
// strong semantics (publish-on-write) does not have. The file system itself
// survives (server-side state is durable).
func (c *Client) Crash() {
	c.fs.mu.Lock()
	defer c.fs.mu.Unlock()
	c.crashLocked()
}

// crashLocked is Crash for callers already holding fs.mu (fault hooks).
func (c *Client) crashLocked() {
	c.pending = make(map[string][]extent)
	c.crashed = true
}

// Crashed reports whether Crash was called.
func (c *Client) Crashed() bool { return c.crashed }
