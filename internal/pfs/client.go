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
	node    int
	pending map[string][]extent // written but not yet published, per path
	crashed bool
}

// NewClient creates the client for a rank on a node.
func (fs *FileSystem) NewClient(rank, node int) *Client {
	return &Client{fs: fs, rank: rank, node: node, pending: make(map[string][]extent)}
}

// FS returns the shared file system this client talks to.
func (c *Client) FS() *FileSystem { return c.fs }

// Handle is an open file description.
type Handle struct {
	c        *Client
	id       uint64 // open-description identity in the operation history
	path     string
	flags    int
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

// Open opens path with POSIX-style flags at simulation time now, returning
// the handle and the simulated cost of the operation.
func (c *Client) Open(path string, flags int, now uint64) (*Handle, uint64, error) {
	fs := c.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if c.crashed {
		// A dead process changes nothing; the attempt is still history.
		fs.recordHistoryLocked(HistoryEvent{Kind: EvOpen, Rank: c.rank, Path: path,
			Flags: flags, Now: now, Err: errString(ErrCrashed)})
		return nil, 0, fmt.Errorf("open %s: %w", path, ErrCrashed)
	}
	fs.stats.MetaOps++
	cost := sim.MetaRPC + sim.OpenCost
	f, err := fs.ensure(path, flags&OCreat != 0)
	if err != nil {
		fs.recordHistoryLocked(HistoryEvent{Kind: EvOpen, Rank: c.rank, Path: path,
			Flags: flags, Now: now, Err: errString(err)})
		return nil, cost, fmt.Errorf("open %s: %w", path, err)
	}
	if flags&OTrunc != 0 {
		if f.laminated {
			fs.recordHistoryLocked(HistoryEvent{Kind: EvOpen, Rank: c.rank, Path: path,
				Flags: flags, Now: now, Err: errString(ErrLaminated)})
			return nil, cost, fmt.Errorf("open %s: %w", path, ErrLaminated)
		}
		f.truncateLocked(0)
		delete(c.pending, path) // truncation discards this client's unpublished writes too
	}
	f.sharers++
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
		flags:    flags,
		openSeq:  fs.pubSeq,
		readable: acc == ORdonly || acc == ORdwr,
		writable: acc == OWronly || acc == ORdwr,
	}
	fs.recordHistoryLocked(HistoryEvent{Kind: EvOpen, Rank: c.rank, Path: path,
		Handle: h.id, Flags: flags, Now: now})
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
	if h.c.crashed {
		return 0, ErrCrashed
	}
	if h.closed {
		return 0, errClosed
	}
	if !h.writable {
		return 0, errReadOnly
	}
	fs := h.c.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, err := fs.ensure(h.path, false)
	if err != nil {
		fs.recordHistoryLocked(HistoryEvent{Kind: EvWrite, Rank: h.c.rank, Path: h.path,
			Handle: h.id, Off: off, Len: data.Len(), Now: now, Err: errString(err)})
		return 0, err
	}
	if f.laminated {
		fs.recordHistoryLocked(HistoryEvent{Kind: EvWrite, Rank: h.c.rank, Path: h.path,
			Handle: h.id, Off: off, Len: data.Len(), Now: now, Err: errString(ErrLaminated)})
		return 0, ErrLaminated
	}
	act := fs.interceptLocked(OpInfo{Kind: OpWrite, Rank: h.c.rank, Path: h.path,
		Off: off, Len: data.Len(), Now: now})
	if act.CrashBefore {
		h.c.crashLocked()
		fs.recordHistoryLocked(HistoryEvent{Kind: EvWrite, Rank: h.c.rank, Path: h.path,
			Handle: h.id, Off: off, Len: data.Len(), Now: now, Err: errString(ErrCrashed)})
		return 0, ErrCrashed
	}
	fs.serverSpan(off, data.Len())
	cost := sim.IOCost(data.Len())
	if act.Transient {
		var extra uint64
		act, extra, _ = fs.retryTransientLocked(OpInfo{Kind: OpWrite, Rank: h.c.rank,
			Path: h.path, Off: off, Len: data.Len(), Now: now})
		cost += extra
		if act.Transient {
			fs.recordHistoryLocked(HistoryEvent{Kind: EvWrite, Rank: h.c.rank, Path: h.path,
				Handle: h.id, Off: off, Len: data.Len(), Now: now, Err: errString(ErrTransient)})
			return cost, fmt.Errorf("write %s: %w", h.path, ErrTransient)
		}
	}
	if act.Torn && act.TornKeep < data.Len() {
		data = data.Slice(0, max(act.TornKeep, 0))
	}
	// Counted once the write is known to land, with the bytes it kept.
	fs.stats.Writes++
	fs.stats.BytesWritten += data.Len()
	e := extent{off: off, data: data, writer: int32(h.c.rank)} // the caller's payload, not a copy (see Write)
	switch fs.opts.Semantics {
	case Strong:
		cost += fs.lockCostLocked(f)
		fs.publishBatchLocked(f, []extent{e}, now, act)
	case Commit, Session:
		h.c.pending[h.path] = append(h.c.pending[h.path], e)
	case Eventual:
		fs.publishBatchLocked(f, []extent{e}, now, act)
	}
	observeOp(OpWrite, cost)
	// A crash-after write is recorded as successful: the data landed on the
	// servers even though the process never observed the completion. Its
	// bytes are made only for a recorder that keeps them.
	if fs.history != nil {
		fs.recordHistoryLocked(HistoryEvent{Kind: EvWrite, Rank: h.c.rank, Path: h.path,
			Handle: h.id, Off: off, Len: data.Len(), Data: data.Materialize(), Now: now})
	}
	if act.CrashAfter {
		h.c.crashLocked()
		return cost, ErrCrashed
	}
	return cost, nil
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
	if h.c.crashed {
		return payload.P{}, 0, ErrCrashed
	}
	if h.closed {
		return payload.P{}, 0, errClosed
	}
	if !h.readable {
		return payload.P{}, 0, errWriteOnly
	}
	fs := h.c.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, err := fs.ensure(h.path, false)
	if err != nil {
		fs.recordHistoryLocked(HistoryEvent{Kind: EvRead, Rank: h.c.rank, Path: h.path,
			Handle: h.id, Off: off, Len: n, Now: now, Err: errString(err)})
		return payload.P{}, 0, err
	}
	act := fs.interceptLocked(OpInfo{Kind: OpRead, Rank: h.c.rank, Path: h.path,
		Off: off, Len: n, Now: now})
	if act.CrashBefore {
		h.c.crashLocked()
		fs.recordHistoryLocked(HistoryEvent{Kind: EvRead, Rank: h.c.rank, Path: h.path,
			Handle: h.id, Off: off, Len: n, Now: now, Err: errString(ErrCrashed)})
		return payload.P{}, 0, ErrCrashed
	}
	fs.serverSpan(off, n)
	cost := sim.IOCost(n)
	if act.Transient {
		var extra uint64
		act, extra, _ = fs.retryTransientLocked(OpInfo{Kind: OpRead, Rank: h.c.rank,
			Path: h.path, Off: off, Len: n, Now: now})
		cost += extra
		if act.Transient {
			fs.recordHistoryLocked(HistoryEvent{Kind: EvRead, Rank: h.c.rank, Path: h.path,
				Handle: h.id, Off: off, Len: n, Now: now, Err: errString(ErrTransient)})
			return payload.P{}, cost, fmt.Errorf("read %s: %w", h.path, ErrTransient)
		}
	}
	fs.stats.Reads++
	if fs.opts.Semantics == Strong {
		cost += fs.lockCostLocked(f)
	}
	visible := h.visibleLocked(now)
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
	data := read(f, off, n, visible, own)
	observeOp(OpRead, cost)
	if data.Len() == 0 {
		fs.recordHistoryLocked(HistoryEvent{Kind: EvRead, Rank: h.c.rank, Path: h.path,
			Handle: h.id, Off: off, Len: n, Now: now})
		return payload.P{}, cost, nil
	}
	fs.stats.BytesRead += data.Len()
	if fs.history != nil {
		// The history's bytes are its own, apart from the reader's.
		fs.recordHistoryLocked(HistoryEvent{Kind: EvRead, Rank: h.c.rank, Path: h.path,
			Handle: h.id, Off: off, Len: n, Data: data.Clone().Materialize(), Now: now})
	}
	return data, cost, nil
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
	if h.c.crashed {
		return 0, ErrCrashed
	}
	if h.closed {
		return 0, errClosed
	}
	fs := h.c.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	act := fs.interceptLocked(OpInfo{Kind: OpCommit, Rank: h.c.rank, Path: h.path, Now: now})
	if act.CrashBefore {
		h.c.crashLocked()
		fs.recordHistoryLocked(HistoryEvent{Kind: EvCommit, Rank: h.c.rank, Path: h.path,
			Handle: h.id, Now: now, Err: errString(ErrCrashed)})
		return 0, ErrCrashed
	}
	cost := sim.SyncCost
	observeOp(OpCommit, cost)
	if fs.opts.Semantics != Commit {
		fs.recordHistoryLocked(HistoryEvent{Kind: EvCommit, Rank: h.c.rank, Path: h.path,
			Handle: h.id, Now: now})
		if act.CrashAfter {
			h.c.crashLocked()
			return cost, ErrCrashed
		}
		return cost, nil
	}
	f, err := fs.ensure(h.path, false)
	if err != nil {
		fs.recordHistoryLocked(HistoryEvent{Kind: EvCommit, Rank: h.c.rank, Path: h.path,
			Handle: h.id, Now: now, Err: errString(err)})
		return cost, err
	}
	if act.DropCommit {
		// Lost fsync: the sync "succeeds" but nothing durably publishes —
		// the silent failure mode commit-semantics protocols must tolerate.
		// The history marks it as dropped so the checker treats it as the
		// no-op it server-side was.
		fs.recordHistoryLocked(HistoryEvent{Kind: EvCommit, Rank: h.c.rank, Path: h.path,
			Handle: h.id, Now: now, Err: "fault: dropped commit"})
		return cost, nil
	}
	fs.publishBatchLocked(f, h.c.pending[h.path], now, act)
	delete(h.c.pending, h.path)
	fs.recordHistoryLocked(HistoryEvent{Kind: EvCommit, Rank: h.c.rank, Path: h.path,
		Handle: h.id, Now: now})
	if act.CrashAfter {
		h.c.crashLocked()
		return cost, ErrCrashed
	}
	return cost, nil
}

// Close closes the handle. Under commit and session semantics closing
// publishes the client's pending writes (close acts as a commit, and session
// visibility is close-to-open). Returns the simulated cost.
func (h *Handle) Close(now uint64) (uint64, error) {
	if h.c.crashed {
		return 0, ErrCrashed
	}
	if h.closed {
		return 0, errClosed
	}
	fs := h.c.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	act := fs.interceptLocked(OpInfo{Kind: OpClose, Rank: h.c.rank, Path: h.path, Now: now})
	if act.CrashBefore {
		// The process dies before close: the session never ends, pending
		// writes are lost, and the server eventually reaps the open handle.
		h.c.crashLocked()
		if f, err := fs.ensure(h.path, false); err == nil && f.sharers > 0 {
			f.sharers--
		}
		h.closed = true
		fs.recordHistoryLocked(HistoryEvent{Kind: EvClose, Rank: h.c.rank, Path: h.path,
			Handle: h.id, Now: now, Err: errString(ErrCrashed)})
		return 0, ErrCrashed
	}
	h.closed = true
	cost := sim.CloseCost + sim.MetaRPC
	observeOp(OpClose, cost)
	f, err := fs.ensure(h.path, false)
	if err != nil {
		fs.recordHistoryLocked(HistoryEvent{Kind: EvClose, Rank: h.c.rank, Path: h.path,
			Handle: h.id, Now: now, Err: errString(err)})
		return cost, err
	}
	if f.sharers > 0 {
		f.sharers--
	}
	switch fs.opts.Semantics {
	case Commit, Session:
		fs.publishBatchLocked(f, h.c.pending[h.path], now, act)
		delete(h.c.pending, h.path)
	}
	fs.recordHistoryLocked(HistoryEvent{Kind: EvClose, Rank: h.c.rank, Path: h.path,
		Handle: h.id, Now: now})
	if act.CrashAfter {
		h.c.crashLocked()
		return cost, ErrCrashed
	}
	return cost, nil
}

// Laminate implements UnifyFS's lamination (§3.2): the client's pending
// writes publish, and the file becomes permanently read-only with its
// content globally visible under every consistency model. Returns the
// simulated cost (a sync plus a metadata round trip).
func (h *Handle) Laminate(now uint64) (uint64, error) {
	fs := h.c.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if h.c.crashed {
		// A dead process changes nothing; the attempt is still history.
		fs.recordHistoryLocked(HistoryEvent{Kind: EvLaminate, Rank: h.c.rank, Path: h.path,
			Handle: h.id, Now: now, Err: errString(ErrCrashed)})
		return 0, ErrCrashed
	}
	if h.closed {
		return 0, errClosed
	}
	f, err := fs.ensure(h.path, false)
	cost := sim.SyncCost + sim.MetaRPC
	if err != nil {
		fs.recordHistoryLocked(HistoryEvent{Kind: EvLaminate, Rank: h.c.rank, Path: h.path,
			Handle: h.id, Now: now, Err: errString(err)})
		return cost, err
	}
	fs.publishLocked(f, h.c.pending[h.path], now)
	delete(h.c.pending, h.path)
	f.laminated = true
	fs.recordHistoryLocked(HistoryEvent{Kind: EvLaminate, Rank: h.c.rank, Path: h.path,
		Handle: h.id, Now: now})
	return cost, nil
}

// Truncate sets the file length; the change is immediately visible in all
// models (metadata-path operation).
func (h *Handle) Truncate(length int64) (uint64, error) {
	fs := h.c.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if h.c.crashed {
		// A dead process changes nothing; the attempt is still history.
		fs.recordHistoryLocked(HistoryEvent{Kind: EvTruncate, Rank: h.c.rank, Path: h.path,
			Handle: h.id, Off: length, Err: errString(ErrCrashed)})
		return 0, ErrCrashed
	}
	if h.closed {
		return 0, errClosed
	}
	fs.stats.MetaOps++
	f, err := fs.ensure(h.path, false)
	if err != nil {
		fs.recordHistoryLocked(HistoryEvent{Kind: EvTruncate, Rank: h.c.rank, Path: h.path,
			Handle: h.id, Off: length, Err: errString(err)})
		return sim.MetaRPC, err
	}
	if f.laminated {
		fs.recordHistoryLocked(HistoryEvent{Kind: EvTruncate, Rank: h.c.rank, Path: h.path,
			Handle: h.id, Off: length, Err: errString(ErrLaminated)})
		return sim.MetaRPC, ErrLaminated
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
	fs.recordHistoryLocked(HistoryEvent{Kind: EvTruncate, Rank: h.c.rank, Path: h.path,
		Handle: h.id, Off: length})
	return sim.MetaRPC, nil
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
