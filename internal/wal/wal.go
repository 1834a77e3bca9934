// Package wal is a per-client host-side write-ahead log in front of the
// simulated parallel file system (internal/pfs). It models the node-local
// logging tier that systems like ParaLog and iFast put under checkpoint
// bursts: a write is acknowledged at the simulated cost of a CRC-framed,
// fsync'd local append, not of the pfs round trip. The write then goes into
// the pfs within the same call, at the ack's simulated time, retrying
// transient faults. When the log disk fails, the log degrades for good to
// synchronous write-through.
//
// Consistency is preserved per model because the pfs sees each rank's
// operations in program order, each write carrying the simulated timestamp
// captured at ack time (DESIGN.md §13). Only writes pass through the Log;
// every other operation goes to the pfs handle directly. The formal specs in
// internal/consistency therefore accept WAL-mediated histories for all four
// models.
package wal

import (
	"errors"
	"fmt"
	"path/filepath"

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
	// maxDrainRetries bounds how often one write is retried into the pfs
	// on pfs.ErrTransient before its error is returned. The retries cost
	// no host time: the pfs client already prices its own backoff in
	// simulated time.
	maxDrainRetries = 6
	// ackBaseNS and ackBytesPerNS price the simulated acknowledgement of
	// a logged write: cost = ackBaseNS + len/ackBytesPerNS, a node-local
	// NVMe append (1500 ns + 1 ns per 8 bytes) — far under the parallel
	// FS's write path (sim.IOCost plus the server round trips), which is
	// the point of the WAL.
	ackBaseNS     uint64 = 1500
	ackBytesPerNS uint64 = 8
)

// Stats counts one Log's activity, a deterministic function of the run.
type Stats struct {
	Acked        int64 // writes acknowledged from the local log
	AckedBytes   int64
	Drained      int64 // logged writes that reached the pfs
	WriteThrough int64 // writes degraded to synchronous write-through
	Retries      int64 // pfs write retries after transient faults
	Salvaged     int   // records salvaged from a pre-existing log file
}

// Log is one rank's write-ahead log. Like the pfs.Client it fronts, it
// belongs to one rank's goroutine and is not safe for concurrent use.
type Log struct {
	rank     int
	opts     Options
	dir      string
	ownsDir  bool
	file     storage.File
	closed   bool
	degraded bool // sticky write-through after a local log failure
	stats    Stats
}

// Open creates (or reopens) rank's log file under opts.Dir. A pre-existing
// file is salvaged: complete records are kept (they are acked writes a
// previous incarnation logged — recovery wants them; see recoverDirOn), and
// a torn tail is truncated so new appends land on a record boundary.
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
	l := &Log{rank: rank, opts: opts, dir: dir, ownsDir: ownsDir, file: f}
	l.stats.Salvaged = st.Records
	return l, nil
}

func logName(rank int) string { return fmt.Sprintf("rank-%04d.wal", rank) }

// Write acknowledges one application write: it appends the record to the
// local log (fsync'd unless NoFsync), writes the payload into the pfs at the
// ack's simulated time now, and returns the (cheap) simulated ack cost, or
// the error that kept the write out of the pfs. The log record holds the
// payload's bytes; the pfs keeps the payload itself, as with
// pfs.Handle.Write. After a log-disk failure every write goes straight to
// the pfs at full cost.
func (l *Log) Write(h *pfs.Handle, off int64, data payload.P, now uint64) (uint64, error) {
	if !l.degraded {
		if _, err := appendRecord(l.file, logRecord{Path: h.Path(), Off: off, Now: now, Data: data.Materialize()}, l.opts.NoFsync); err != nil {
			// Local log disk failed (full, unwritable, gone). The write
			// itself can still succeed the slow way; stick in
			// write-through so no later ack ever rests on a log that
			// cannot hold it.
			l.degraded = true
		}
	}
	if l.degraded {
		l.stats.WriteThrough++
		return h.Write(off, data, now)
	}
	l.stats.Acked++
	l.stats.AckedBytes += data.Len()
	storage.KillPoint("wal.drain.before-publish")
	_, err := h.Write(off, data, now)
	for try := 0; try < maxDrainRetries && errors.Is(err, pfs.ErrTransient); try++ {
		l.stats.Retries++
		_, err = h.Write(off, data, now)
	}
	if err != nil {
		return 0, fmt.Errorf("wal: drain rank %d %s+%d: %w", l.rank, h.Path(), off, err)
	}
	storage.KillPoint("wal.drain.after-publish")
	l.stats.Drained++
	cost := ackBaseNS + uint64(data.Len())/ackBytesPerNS
	ackCostNS.Observe(int64(cost))
	return cost, nil
}

// Close closes the log file and — for a Log that owned a private temp dir —
// removes it. Every write is already in the pfs, so there is nothing to
// drain. Closing twice is a no-op.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.file.Close()
	if l.ownsDir {
		storage.RemoveAll(l.opts.Backend, l.dir)
	}
	return err
}
