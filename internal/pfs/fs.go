package pfs

import (
	"errors"
	"sync"

	"repro/internal/payload"
	"repro/internal/sim"
)

// Errors returned by file system operations.
var (
	errNotExist  = errors.New("pfs: file does not exist")
	ErrExist     = errors.New("pfs: file already exists")
	errIsDir     = errors.New("pfs: path is a directory")
	errClosed    = errors.New("pfs: handle is closed")
	errReadOnly  = errors.New("pfs: handle not open for writing")
	errWriteOnly = errors.New("pfs: handle not open for reading")
	ErrLaminated = errors.New("pfs: file is laminated (permanently read-only)")
	ErrCrashed   = errors.New("pfs: client process has crashed")
	ErrTransient = errors.New("pfs: transient I/O error (retries exhausted)")
	// errDroppedCommit is what the history records for a commit that a
	// lost-fsync fault made a no-op; the caller sees the commit succeed.
	errDroppedCommit = errors.New("fault: dropped commit")
)

// Options configures a FileSystem.
type Options struct {
	Semantics     Semantics
	EventualDelay uint64 // visibility delay for Eventual semantics, ns; 0 means 50 ms
	// UnorderedSameProcess models BurstFS (§3.5): conflicting accesses by
	// the SAME process are not guaranteed to take effect in program order —
	// a read following two overlapping writes from the same process may
	// return the value of either. Implemented by overlaying a client's
	// unpublished writes in reverse order on reads. Applications with
	// same-process conflicts (WAW-S/RAW-S in Table 4) misbehave here even
	// when the base semantics would otherwise suffice.
	UnorderedSameProcess bool
}

func (o Options) withDefaults() Options {
	if o.EventualDelay == 0 {
		o.EventualDelay = 50_000_000 // 50 ms
	}
	return o
}

// extent is one published or pending write. Its payload is what the
// writer passed: a fill reference stays a reference, and bytes are made
// only for the range a read, ContentDump or the history asks for.
type extent struct {
	off     int64
	data    payload.P
	seq     uint64 // publish sequence number (0 while pending)
	pubTime uint64 // true simulation time of publish
	writer  int32
}

func (e extent) end() int64 { return e.off + e.data.Len() }

// file is the server-side state of one file.
type file struct {
	published []extent       // in publish (seq) order
	size      int64          // max published end, adjusted by truncate
	openers   map[int32]bool // distinct clients that ever opened the file
	acquires  int64          // strong-mode lock acquisitions on this file
	dir       bool
	laminated bool // UnifyFS lamination: permanently read-only, globally visible
}

// Stats aggregates server-side counters. The lock counters expose the
// strong-semantics overhead that motivates relaxed models (Section 3.1).
type Stats struct {
	LockAcquires    int64
	LockContended   int64 // acquires on files shared by >1 distinct client
	Retries         int64 // transient-error retry attempts by clients
	TransientErrors int64 // transient failures that exhausted the retry policy
}

// FileSystem is the shared, server-side half of the PFS. Clients (one per
// rank) are created with NewClient and hold the pending-write state.
type FileSystem struct {
	mu         sync.Mutex
	opts       Options
	files      map[string]*file
	pubSeq     uint64
	stats      Stats
	injector   FaultInjector   // optional fault-injection hook (see hooks.go)
	history    HistoryRecorder // optional op-history recorder (see history.go)
	histSeq    uint64          // total-order logical timestamp of recorded events
	nextHandle uint64          // open file description identity for the history
}

// New creates a file system with the given options.
func New(opts Options) *FileSystem {
	o := opts.withDefaults()
	return &FileSystem{opts: o, files: make(map[string]*file)}
}

// Options returns the (defaulted) options the file system runs with.
func (fs *FileSystem) Options() Options { return fs.opts }

// Stats returns a snapshot of the server-side counters. LockContended is
// derived deterministically: every acquisition on a file that more than one
// distinct client opened counts as contended (lock traffic that a shared
// lock manager must serialize), independent of goroutine scheduling.
func (fs *FileSystem) Stats() Stats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	s := fs.stats
	for _, f := range fs.files {
		if len(f.openers) > 1 {
			s.LockContended += f.acquires
		}
	}
	return s
}

// mkdir creates a directory entry (directories are flat markers; the
// analysis only needs the metadata traffic).
func (fs *FileSystem) Mkdir(path string) (cost uint64, err error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f, ok := fs.files[path]; ok {
		if f.dir {
			return sim.MetaRPC, ErrExist
		}
		return sim.MetaRPC, ErrExist
	}
	fs.files[path] = &file{dir: true}
	return sim.MetaRPC, nil
}

// Unlink removes a file.
func (fs *FileSystem) Unlink(path string) (cost uint64, err error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return sim.MetaRPC, errNotExist
	}
	if f.dir {
		return sim.MetaRPC, errIsDir
	}
	delete(fs.files, path)
	return sim.MetaRPC, nil
}

// Rename moves a file from old to new.
func (fs *FileSystem) Rename(oldPath, newPath string) (cost uint64, err error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[oldPath]
	if !ok {
		return sim.MetaRPC, errNotExist
	}
	delete(fs.files, oldPath)
	fs.files[newPath] = f
	return sim.MetaRPC, nil
}

// FileInfo is the result of a Stat.
type FileInfo struct {
	Path  string
	Size  int64
	IsDir bool
}

// Stat returns metadata for path. The size reported is the published
// (strong-view) size, as a real metadata server would report.
func (fs *FileSystem) Stat(path string) (FileInfo, uint64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return FileInfo{}, sim.MetaRPC, errNotExist
	}
	return FileInfo{Path: path, Size: f.size, IsDir: f.dir}, sim.MetaRPC, nil
}

// ensure returns the file at path, creating it if create is set.
func (fs *FileSystem) ensure(path string, create bool) (*file, error) {
	f, ok := fs.files[path]
	if !ok {
		if !create {
			return nil, errNotExist
		}
		f = &file{}
		fs.files[path] = f
	}
	if f.dir {
		return nil, errIsDir
	}
	return f, nil
}

// truncateLocked resets a file to the given length. Data above length is
// discarded; the operation is globally visible immediately in every model
// (metadata-path operation).
func (f *file) truncateLocked(length int64) {
	if length < 0 {
		length = 0
	}
	kept := f.published[:0]
	for _, e := range f.published {
		if e.off >= length {
			continue
		}
		if e.end() > length {
			e.data = e.data.Slice(0, length-e.off)
		}
		kept = append(kept, e)
	}
	f.published = kept
	f.size = length
}

// publishLocked appends extents to the file's published list, assigning
// sequence numbers, and updates size.
func (fs *FileSystem) publishLocked(f *file, exts []extent, now uint64) {
	for _, e := range exts {
		fs.pubSeq++
		e.seq = fs.pubSeq
		e.pubTime = now
		f.published = append(f.published, e)
		if e.end() > f.size {
			f.size = e.end()
		}
	}
}

// publishBatchLocked publishes a batch under an (optionally perturbing)
// fault action: the batch may be reversed (reordered publish) and its
// publish time pushed back (delayed server-side ingest).
func (fs *FileSystem) publishBatchLocked(f *file, exts []extent, now uint64, act FaultAction) {
	if act.ReorderPublish && len(exts) > 1 {
		rev := make([]extent, len(exts))
		for i, e := range exts {
			rev[len(exts)-1-i] = e
		}
		exts = rev
	}
	fs.publishLocked(f, exts, now+act.PublishDelay)
}

// visibleScan walks the extents a reader sees — published extents passing
// the visibility predicate in publish order, then the reader's own pending
// extents in write order — and returns the highest visible end offset and
// the last extent applied over [off, off+n), or nil. Read and VisibleSize
// both resolve the visible end here, so a read never returns less than
// VisibleSize promises.
func visibleScan(f *file, off, n int64, visible func(*extent) bool, own []extent) (int64, *extent) {
	var visEnd int64
	var last *extent
	scan := func(e *extent) {
		visEnd = max(visEnd, e.end())
		if max(e.off, off) < min(e.end(), off+n) {
			last = e
		}
	}
	for i := range f.published {
		if e := &f.published[i]; visible(e) {
			scan(e)
		}
	}
	for i := range own {
		scan(&own[i])
	}
	return visEnd, last
}

// read returns the visible content of [off, off+n) for a reader:
// published extents passing the visibility predicate are applied in
// publish order, then the reader's own pending extents are overlaid in
// write order, and the content ends at the highest visible end offset.
// When the last extent applied over the range covers all of it, the
// content is a slice of that extent's payload: a reference stays one, and
// a Bytes payload's slice is copied, so no reader shares the file system's
// buffers. Otherwise the bytes are built, and only the part of each
// payload that overlaps the range is made.
func read(f *file, off, n int64, visible func(*extent) bool, own []extent) payload.P {
	visEnd, last := visibleScan(f, off, n, visible, own)
	n = min(n, visEnd-off)
	if n <= 0 {
		return payload.P{}
	}
	if last != nil && last.off <= off && last.end() >= off+n {
		return last.data.Slice(off-last.off, off+n-last.off).Clone()
	}
	buf := make([]byte, n)
	for i := range f.published {
		if e := &f.published[i]; visible(e) {
			e.overlay(buf, off)
		}
	}
	for i := range own {
		own[i].overlay(buf, off)
	}
	return payload.Bytes(buf)
}

// overlay copies the part of e that overlaps [off, off+len(buf)) into buf.
func (e *extent) overlay(buf []byte, off int64) {
	lo, hi := e.off, e.end()
	from, to := max(lo, off), min(hi, off+int64(len(buf)))
	if from < to {
		e.data.Slice(from-lo, to-lo).CopyTo(buf[from-off:])
	}
}

// ContentDump snapshots every regular file's fully-published content —
// all published extents applied in publish order over [0, size), pending
// (uncommitted) data excluded. Two file systems that went through
// equivalent op sequences dump byte-identical maps, which is what the WAL
// kill-and-recover harness diffs: state recovered after a crash versus the
// state of an uninterrupted run.
func (fs *FileSystem) ContentDump() map[string][]byte {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dump := make(map[string][]byte, len(fs.files))
	for path, f := range fs.files {
		if f.dir {
			continue
		}
		buf := make([]byte, f.size)
		read(f, 0, f.size, func(*extent) bool { return true }, nil).CopyTo(buf)
		dump[path] = buf
	}
	return dump
}
