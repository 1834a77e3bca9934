// Package storage is the durable-storage seam under every host-side
// persistence layer in the repo (internal/wal log segments + ack files,
// recorder trace directories). A Backend abstracts the handful of
// operations the durable layers actually use — open/read/write-at/sync/
// remove/list, the catalyst-forge fs + go-objstore StorageFS shape — so the
// same logs and traces can run against:
//
//   - osdisk: the local file system, byte-identical to the pre-seam os.*
//     paths (the compatibility oracle, pinned by golden-layout tests). A
//     host-side log wants node-local storage, which this is;
//   - flaky: a wrapper over another backend, firing seed-deterministic
//     injected faults (latency, transient errors, torn writes, lost syncs)
//     at the Nth eligible operation, mirroring internal/faults' schedule
//     discipline.
//
// NewRetry returns a policy wrapper adding per-op deadlines and
// backoff-based bounded retries on errTransient. The WAL degrades to
// write-through on any append error, exhausted retries included.
//
// The package sits below internal/faults in the import order (faults
// imports wal imports storage), so process-kill points go through a hook:
// faults installs its Hit counter via SetKillPointHook when any point is
// armed, and every durable layer reports its points through KillPoint.
// OpenFrameLog and AppendFrame are the WAL's durable-append path (frame
// format: internal/frame).
package storage

import (
	"errors"
	"fmt"
	"io"
	"strings"
)

// Open flags, a strict subset of the os.O_* set the durable layers use.
// Values intentionally match the os package so the osdisk backend is a
// pass-through.
const (
	ORdonly = 0x0
	OWronly = 0x1
	oRdwr   = 0x2
	OCreate = 0x40
	OTrunc  = 0x200
	OAppend = 0x400
)

// errTransient marks a failure worth retrying: the operation may succeed on
// a later attempt against the same backend (injected flaky-backend errors).
// Wrap with %w so errors.Is sees it.
var errTransient = errors.New("storage: transient backend error")

// errUnavailable marks a backend the retry policy has given up on: the
// per-op attempt budget or deadline was exhausted without a success. The
// WAL, which sees the append fail, falls back to synchronous write-through.
var errUnavailable = errors.New("storage: backend unavailable")

// File is one open object on a Backend. The durable layers use it as an
// append log (Write after Seek to the recovered tail), a random-access blob
// (ReadAt/WriteAt), and a sequential recovery stream (Read from offset 0).
// Sync is the durability point: a write is crash-safe exactly when the Sync
// covering it has returned.
type File interface {
	io.Reader
	io.Writer
	io.ReaderAt
	io.WriterAt
	io.Seeker
	io.Closer
	// Truncate cuts the file to size bytes (recovery truncates torn tails).
	Truncate(size int64) error
	// Sync makes every preceding write durable.
	Sync() error
	// Name returns the path the file was opened with.
	Name() string
}

// Backend is the minimal durable-store surface. Path semantics follow the
// slash-separated os layout; a flat-namespace backend is free to treat the
// separator as part of an opaque key (MkdirAll a no-op, List a prefix scan).
type Backend interface {
	// Name identifies the backend kind ("osdisk", "flaky(...)",
	// "retry(...)"); a wrapper's name embeds its inner backend's.
	Name() string
	// Open opens path with the O* flags above, creating it if OCreate.
	Open(path string, flags int, perm uint32) (File, error)
	// ReadFile returns path's full (visible) contents.
	ReadFile(path string) ([]byte, error)
	// Remove deletes path (nil if it does not exist is NOT guaranteed;
	// callers that want idempotence check IsNotExist).
	Remove(path string) error
	// MkdirAll ensures the directory exists (no-op on flat namespaces).
	MkdirAll(path string) error
	// List returns the names (not full paths) of entries directly under
	// dir, sorted. A missing directory lists empty, not an error.
	List(dir string) ([]string, error)
	// Stat reports path's visible size, or an error satisfying
	// IsNotExist(err) if the path does not (yet) exist.
	Stat(path string) (int64, error)
}

// unwrapper is implemented by wrapper backends (flaky, retry) so helpers
// can reach the base of the chain.
type unwrapper interface{ Unwrap() Backend }

// base walks wrapper chains down to the innermost backend.
func base(b Backend) Backend {
	for {
		u, ok := b.(unwrapper)
		if !ok {
			return b
		}
		b = u.Unwrap()
	}
}

// MapsFiles reports whether paths on b name plain local files whose bytes
// may be read outside the Backend interface — e.g. memory-mapped by a
// zero-copy reader. True only when the chain bottoms out at osdisk through
// pass-through wrappers (retry): a flaky wrapper must keep intercepting
// reads so its fault schedule fires. Callers that get false fall back to
// ReadFile.
func MapsFiles(b Backend) bool {
	for {
		switch b.(type) {
		case osdisk:
			return true
		case *retrier:
			// Pass-through on the healthy path; a read that would need the
			// retry policy fails the mmap open and surfaces normally.
		default:
			return false
		}
		u, ok := b.(unwrapper)
		if !ok {
			return false
		}
		b = u.Unwrap()
	}
}

// IsNotExist reports whether err means "no such file" on any backend.
func IsNotExist(err error) bool { return osIsNotExist(err) }

// TempDir creates a fresh private directory on b and returns its path. On
// osdisk it is a real os.MkdirTemp dir; on any other backend it is a
// process-unique name made with MkdirAll.
func TempDir(b Backend, pattern string) (string, error) {
	if _, ok := base(b).(osdisk); ok {
		return osMkdirTemp(pattern)
	}
	dir := pattern + uniqueSuffix()
	return dir, b.MkdirAll(dir)
}

// RemoveAll removes every entry under dir plus dir itself, best effort.
func RemoveAll(b Backend, dir string) error {
	if _, ok := base(b).(osdisk); ok {
		return osRemoveAll(dir)
	}
	names, err := b.List(dir)
	if err != nil {
		return err
	}
	var first error
	for _, name := range names {
		p := joinPath(dir, name)
		err := b.Remove(p)
		if err != nil && !IsNotExist(err) {
			// Maybe a subdirectory: recurse once before giving up.
			if rerr := RemoveAll(b, p); rerr != nil && first == nil {
				first = err
			}
		}
	}
	if err := b.Remove(dir); err != nil && !IsNotExist(err) && first == nil {
		first = err
	}
	return first
}

func joinPath(dir, name string) string {
	if dir == "" || dir == "." {
		return name
	}
	if strings.HasSuffix(dir, "/") {
		return dir + name
	}
	return dir + "/" + name
}

// ParseSpec builds a backend from a CLI -backend spec:
//
//	osdisk
//	flaky:seed=3                     (flaky over osdisk)
//	flaky:seed=3,count=8,kinds=transient
//
// Every backend is returned bare; callers that want the retry/degrade
// policy wrap the result with NewRetry themselves (semrepro does).
func ParseSpec(spec string) (Backend, error) {
	kind, args, _ := strings.Cut(spec, ":")
	switch kind {
	case "", "osdisk":
		if args != "" {
			return nil, fmt.Errorf("storage: backend spec %q: osdisk takes no options", spec)
		}
		return OS(), nil
	case "flaky":
	default:
		return nil, fmt.Errorf("storage: unknown backend %q (want osdisk|flaky)", kind)
	}
	var seed uint64 = 1
	var gen GenOptions
	var kvs []string
	if args != "" {
		kvs = strings.Split(args, ",")
	}
	for _, kv := range kvs {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("storage: backend spec %q: want key=value, got %q", spec, kv)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		var err error
		switch k {
		case "seed":
			_, err = fmt.Sscanf(v, "%d", &seed)
		case "count":
			_, err = fmt.Sscanf(v, "%d", &gen.Count)
		case "kinds":
			switch v {
			case "transient":
				gen.Kinds = []FaultKind{faultLatency, FaultTransient}
			case "all":
			default:
				err = errors.New("must be transient|all")
			}
		default:
			err = errors.New("unknown key (want seed|count|kinds)")
		}
		if err != nil {
			return nil, fmt.Errorf("storage: backend spec %q: %s: %w", spec, k, err)
		}
	}
	return NewFlaky(OS(), GenSchedule(seed, gen)), nil
}
