// Package wal is a per-client host-side write-ahead log in front of the
// simulated parallel file system (internal/pfs). It models the node-local
// logging tier that systems like ParaLog and iFast put under checkpoint
// bursts: a write is acknowledged as soon as it is CRC-framed, appended and
// fsync'd to a local log file, and a background drainer replays it into the
// pfs data path with bounded in-flight depth, retrying transient faults
// with jittered exponential backoff. When the local log cannot absorb the
// burst — the log disk fails or the drain queue exceeds its watermark —
// the log degrades gracefully to synchronous write-through.
//
// Consistency is preserved per model by two ordering rules (DESIGN.md §13):
// drain is strictly FIFO per client, and every non-write operation on a
// WAL-attached client (read, commit, close, truncate, laminate, visible
// size, open) is a full drain barrier. The pfs therefore observes exactly
// the program-order op sequence it would without the WAL, with each drained
// write carrying the simulated timestamp captured at ack time — so the
// formal specs in internal/consistency accept WAL-mediated histories for
// all four models.
package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/payload"
	"repro/internal/pfs"
	"repro/internal/storage"
)

// Options configures one per-rank Log.
type Options struct {
	// Dir holds the per-rank log files ("rank-%04d.wal"). Empty means a
	// private temp dir removed on Close — right for benchmarks; crash
	// recovery needs a caller-owned Dir that survives the process.
	Dir string
	// Backend is the durable store holding the log files. Nil means the
	// local OS disk (storage.OS()), byte-identical to the pre-seam layout.
	Backend storage.Backend
	// NoFsync skips the per-append fsync. Test/bench-only: it voids the
	// durability guarantee that makes acked writes crash-safe.
	NoFsync bool
}

func (o Options) withDefaults() Options {
	if o.Backend == nil {
		o.Backend = storage.OS()
	}
	return o
}

// The drain and acknowledgement policy.
const (
	// maxInflight bounds how many queued records one background drain
	// batch replays per lock hold.
	maxInflight = 16
	// watermark is the drain-queue depth at which new writes degrade to
	// synchronous write-through (after first forcing a full drain),
	// keeping host memory and replay lag bounded.
	watermark = 256
	// maxDrainRetries bounds per-record drain retries on pfs.ErrTransient
	// before the record is dropped and the error surfaced; the retries
	// back off by storage.Backoff's defaults.
	maxDrainRetries = 6
	// ackBaseNS and ackBytesPerNS price the simulated acknowledgement of
	// a logged write: cost = ackBaseNS + len/ackBytesPerNS, a node-local
	// NVMe append (1500 ns + 1 ns per 8 bytes) — far under the parallel
	// FS's write path (sim.IOCost plus the server round trips), which is
	// the point of the WAL.
	ackBaseNS     uint64 = 1500
	ackBytesPerNS uint64 = 8
)

// Stats counts one Log's activity. Everything except retry timing is a
// deterministic function of the run.
type Stats struct {
	Acked        int64 // writes acknowledged from the local log
	AckedBytes   int64
	Drained      int64 // records replayed into the pfs backend
	WriteThrough int64 // writes degraded to synchronous write-through
	Retries      int64 // drain retries after transient pfs faults
	QueuePeak    int   // high-water drain-queue depth
	Salvaged     int   // records salvaged from a pre-existing log file
}

type queued struct {
	h       *pfs.Handle
	off     int64
	data    payload.P
	now     uint64 // simulated ack timestamp, replayed verbatim at drain
	attempt int
}

// Log is one rank's write-ahead log. All operations on the underlying
// pfs.Client and its handles MUST go through the Log once it is attached:
// pfs clients are not goroutine-safe, and l.mu is what serializes the
// application thread against the background drainer.
type Log struct {
	rank    int
	opts    Options
	dir     string
	ownsDir bool
	file    storage.File

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []queued
	stopped  bool
	degraded bool  // sticky write-through after a local log failure
	deferred error // first background drain error, surfaced at next foreground op
	stats    Stats

	done chan struct{}
}

// Open creates (or reopens) rank's log file under opts.Dir and starts the
// background drainer. A pre-existing file is salvaged: complete records
// are kept (they are acked writes a previous incarnation had not
// yet confirmed drained — recovery wants them; see recoverDirOn), a torn tail
// is truncated so new appends land on a record boundary.
func Open(rank int, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	dir := opts.Dir
	ownsDir := false
	if dir == "" {
		d, err := storage.TempDir(opts.Backend, "semfs-wal-")
		if err != nil {
			return nil, fmt.Errorf("wal: temp dir: %w", err)
		}
		dir, ownsDir = d, true
	} else if err := opts.Backend.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	f, st, err := storage.OpenFrameLog(opts.Backend, filepath.Join(dir, logName(rank)),
		recMagic, maxPayload, recordVisitor(nil))
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{rank: rank, opts: opts, dir: dir, ownsDir: ownsDir, file: f,
		done: make(chan struct{})}
	l.cond = sync.NewCond(&l.mu)
	l.stats.Salvaged = st.Records
	go l.drainLoop()
	return l, nil
}

func logName(rank int) string { return fmt.Sprintf("rank-%04d.wal", rank) }

// statsSnapshot returns a snapshot of the log's counters.
func (l *Log) statsSnapshot() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

func (l *Log) takeDeferredLocked() error {
	err := l.deferred
	l.deferred = nil
	return err
}

// Write acknowledges one application write. Fast path: durable local
// append, enqueue for background drain, return the (cheap) simulated ack
// cost. Degraded paths — sticky log failure or queue over watermark —
// drain everything and write through synchronously at full pfs cost. The
// log record holds the payload's bytes; the drain queue holds the payload
// itself, which belongs to the file system from here on, as with
// pfs.Handle.Write.
func (l *Log) Write(h *pfs.Handle, off int64, data payload.P, now uint64) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.takeDeferredLocked(); err != nil {
		return 0, err
	}
	if l.degraded || l.stopped || len(l.queue) >= watermark {
		return l.writeThroughLocked(h, off, data, now)
	}
	if _, err := appendRecord(l.file, logRecord{Path: h.Path(), Off: off, Now: now, Data: data.Materialize()}, l.opts.NoFsync); err != nil {
		// Local log disk failed (full, unwritable, gone). The write itself
		// can still succeed the slow way; stick in write-through so no
		// later ack ever rests on a log that cannot hold it.
		l.degraded = true
		return l.writeThroughLocked(h, off, data, now)
	}
	l.queue = append(l.queue, queued{h: h, off: off, data: data, now: now})
	if n := len(l.queue); n > l.stats.QueuePeak {
		l.stats.QueuePeak = n
	}
	l.stats.Acked++
	l.stats.AckedBytes += data.Len()
	l.cond.Signal()
	cost := ackBaseNS + uint64(data.Len())/ackBytesPerNS
	ackCostNS.Observe(int64(cost))
	return cost, nil
}

func (l *Log) writeThroughLocked(h *pfs.Handle, off int64, data payload.P, now uint64) (uint64, error) {
	l.stats.WriteThrough++
	if err := l.drainAllLocked(); err != nil {
		return 0, err
	}
	return h.Write(off, data, now)
}

// Barrier drains the queue and surfaces any deferred drain error. Every
// non-write operation routed through the Log is implicitly one of these.
func (l *Log) Barrier() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.takeDeferredLocked(); err != nil {
		return err
	}
	return l.drainAllLocked()
}

// Open is a drain barrier plus pfs open, so an O_TRUNC open can never be
// reordered ahead of writes acked before it.
func (l *Log) Open(c *pfs.Client, path string, flags int, now uint64) (*pfs.Handle, uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.takeDeferredLocked(); err != nil {
		return nil, 0, err
	}
	if err := l.drainAllLocked(); err != nil {
		return nil, 0, err
	}
	return c.Open(path, flags, now)
}

// Read is a drain barrier plus pfs read: read-your-writes holds because
// every acked write is in the pfs before the read issues.
func (l *Log) Read(h *pfs.Handle, off, n int64, now uint64) ([]byte, uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.takeDeferredLocked(); err != nil {
		return nil, 0, err
	}
	if err := l.drainAllLocked(); err != nil {
		return nil, 0, err
	}
	return h.Read(off, n, now)
}

// Commit is a drain barrier plus pfs commit — the fsync the application
// sees covers every write it has been acked for.
func (l *Log) Commit(h *pfs.Handle, now uint64) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.takeDeferredLocked(); err != nil {
		return 0, err
	}
	if err := l.drainAllLocked(); err != nil {
		return 0, err
	}
	return h.Commit(now)
}

// CloseHandle is a drain barrier plus pfs close.
func (l *Log) CloseHandle(h *pfs.Handle, now uint64) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.takeDeferredLocked(); err != nil {
		return 0, err
	}
	if err := l.drainAllLocked(); err != nil {
		return 0, err
	}
	return h.Close(now)
}

// Truncate is a drain barrier plus pfs truncate.
func (l *Log) Truncate(h *pfs.Handle, length int64) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.takeDeferredLocked(); err != nil {
		return 0, err
	}
	if err := l.drainAllLocked(); err != nil {
		return 0, err
	}
	return h.Truncate(length)
}

// VisibleSize is a drain barrier plus pfs VisibleSize. It cannot return an
// error, so a drain failure is re-deferred for the next erroring op.
func (l *Log) VisibleSize(h *pfs.Handle, now uint64) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.drainAllLocked(); err != nil && l.deferred == nil {
		l.deferred = err
	}
	return h.VisibleSize(now)
}

// drainStepLocked replays the queue head into the pfs. Called with l.mu
// held; temporarily releases it to sleep a backoff after a transient fault.
// Returns the error that permanently failed a record (the record is
// dropped), or nil. After a backoff the caller must re-examine the queue:
// whoever holds the lock next drains the (possibly different) head.
func (l *Log) drainStepLocked() error {
	if len(l.queue) == 0 {
		return nil
	}
	rec := l.queue[0]
	storage.KillPoint("wal.drain.before-publish")
	_, err := rec.h.Write(rec.off, rec.data, rec.now)
	if err != nil && errors.Is(err, pfs.ErrTransient) && rec.attempt < maxDrainRetries {
		l.queue[0].attempt++
		l.stats.Retries++
		d := storage.Backoff{}.Delay(rec.attempt)
		l.mu.Unlock()
		time.Sleep(time.Duration(d))
		l.mu.Lock()
		return nil
	}
	l.queue = l.queue[1:]
	if len(l.queue) == 0 {
		l.queue = nil // release the drained backing array
	}
	if err != nil {
		return fmt.Errorf("wal: drain rank %d %s+%d: %w", l.rank, rec.h.Path(), rec.off, err)
	}
	storage.KillPoint("wal.drain.after-publish")
	l.stats.Drained++
	return nil
}

// drainAllLocked empties the queue, remembering the first permanent error
// but still attempting the rest — later records may target healthy files.
func (l *Log) drainAllLocked() error {
	var first error
	for len(l.queue) > 0 {
		if err := l.drainStepLocked(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (l *Log) drainLoop() {
	defer close(l.done)
	l.mu.Lock()
	for {
		for len(l.queue) == 0 && !l.stopped {
			l.cond.Wait()
		}
		if len(l.queue) == 0 && l.stopped {
			break
		}
		for i := 0; i < maxInflight && len(l.queue) > 0; i++ {
			if err := l.drainStepLocked(); err != nil && l.deferred == nil {
				l.deferred = err
			}
		}
		// Yield between batches so a foreground op never waits behind an
		// arbitrarily long queue.
		l.mu.Unlock()
		runtime.Gosched()
		l.mu.Lock()
	}
	l.mu.Unlock()
}

// Close drains every outstanding record, stops the drainer, closes the log
// file and — for a Log that owned a private temp dir — removes it. The
// returned error is the first drain error not yet surfaced, if any.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		<-l.done
		return nil
	}
	l.stopped = true
	err := l.drainAllLocked()
	if err == nil {
		err = l.takeDeferredLocked()
	} else {
		l.deferred = nil
	}
	l.cond.Broadcast()
	l.mu.Unlock()
	<-l.done
	if ferr := l.file.Close(); err == nil && ferr != nil {
		err = ferr
	}
	if l.ownsDir {
		storage.RemoveAll(l.opts.Backend, l.dir)
	}
	return err
}
