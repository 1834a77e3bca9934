// Package storage is the durable-storage seam under every host-side
// persistence layer in the repo (internal/wal log segments + ack files,
// recorder trace directories). The
// paper argues most HPC applications only need relaxed (session/commit)
// file-system semantics; until this seam existed, the repo could only test
// that claim against the local OS disk, whose semantics are strictly
// stronger than what the claim requires. A Backend abstracts the handful of
// operations the durable layers actually use — open/read/write-at/sync/
// remove/list, the catalyst-forge fs + go-objstore StorageFS shape — so the
// same logs and traces can run against:
//
//   - osdisk: the local file system, byte-identical to the pre-seam os.*
//     paths (the compatibility oracle, pinned by golden-layout tests);
//   - objstore: a flat-namespace object store with write-then-publish
//     visibility — a Sync uploads an immutable version that only becomes
//     readable after a tunable delay, so eventual semantics are real, not
//     simulated (see "Exploring Scientific Application Performance Using
//     Large Scale Object Storage", PAPERS.md);
//   - flaky: a wrapper over either, firing seed-deterministic injected
//     faults (latency, transient errors, torn writes, lost syncs) at the
//     Nth eligible operation, mirroring internal/faults' schedule
//     discipline.
//
// Retry returns a policy wrapper adding per-op deadlines, Backoff-based
// bounded retries on errTransient, and a health signal the WAL consumes
// (it degrades to write-through).
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
	"sort"
	"strings"
	"time"
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
// a later attempt against the same backend (injected flaky-backend errors,
// an objstore read racing a publish). Wrap with %w so errors.Is sees it.
var errTransient = errors.New("storage: transient backend error")

// errUnavailable marks a backend the retry policy has given up on: the
// per-op attempt budget or deadline was exhausted without a success. The
// backend's Health then reads false, and the WAL falls back to synchronous
// write-through.
var errUnavailable = errors.New("storage: backend unavailable")

// File is one open object on a Backend. The durable layers use it as an
// append log (Write after Seek to the recovered tail), a random-access blob
// (ReadAt/WriteAt), and a sequential recovery stream (Read from offset 0).
// Sync is the durability point: a write is crash-safe exactly when the Sync
// covering it has returned. On the objstore backend Sync is also the
// *publish* point — the version it uploads becomes visible to readers only
// after the store's visibility delay.
type File interface {
	io.Reader
	io.Writer
	io.ReaderAt
	io.WriterAt
	io.Seeker
	io.Closer
	// Truncate cuts the file to size bytes (recovery truncates torn tails).
	Truncate(size int64) error
	// Sync makes every preceding write durable (and, on publish-style
	// backends, schedules it for visibility).
	Sync() error
	// Name returns the path the file was opened with.
	Name() string
}

// Backend is the minimal durable-store surface. Path semantics follow the
// slash-separated os layout; a flat-namespace backend is free to treat the
// separator as part of an opaque key (MkdirAll a no-op, List a prefix scan).
type Backend interface {
	// Name identifies the backend kind ("osdisk", "objstore", "flaky",
	// "retry"); wrappers report their own name, Root the chain's base.
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

// Base walks wrapper chains down to the innermost backend.
func Base(b Backend) Backend {
	for {
		u, ok := b.(unwrapper)
		if !ok {
			return b
		}
		b = u.Unwrap()
	}
}

// laggy is implemented by backends whose writes publish with a delay.
type laggy interface{ PublishLag() time.Duration }

// publishLag returns the longest time a Sync'd write on b (or any backend
// it wraps) can take to become visible to readers. Zero for read-your-
// writes backends like osdisk.
func publishLag(b Backend) time.Duration {
	var max time.Duration
	for {
		if l, ok := b.(laggy); ok {
			if d := l.PublishLag(); d > max {
				max = d
			}
		}
		u, ok := b.(unwrapper)
		if !ok {
			return max
		}
		b = u.Unwrap()
	}
}

// Settle blocks until every write already published to b is visible —
// recovery calls it before trusting a List. On an eventual backend this is
// a real wait for the visibility horizon to pass; on osdisk it returns
// immediately. It is the honest version of "read repair": recovery does not
// peek behind the visibility rule, it waits the rule out.
func Settle(b Backend) {
	if lag := publishLag(b); lag > 0 {
		time.Sleep(lag + time.Millisecond)
	}
}

// MapsFiles reports whether paths on b name plain local files whose bytes
// may be read outside the Backend interface — e.g. memory-mapped by a
// zero-copy reader. True only when the chain bottoms out at osdisk through
// pass-through wrappers (retry): a flaky wrapper must keep intercepting
// reads so its fault schedule fires, and an object store has no local file
// to map at all. Callers that get false fall back to ReadFile.
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
func IsNotExist(err error) bool {
	return errors.Is(err, errNotExist) || osIsNotExist(err)
}

// errNotExist is the backend-neutral not-exist sentinel non-os backends
// return.
var errNotExist = errors.New("storage: file does not exist")

// TempDir creates a fresh private directory on b and returns its path. On
// osdisk it is a real os.MkdirTemp dir; on flat-namespace backends it is a
// process-unique key prefix (MkdirAll being a no-op there).
func TempDir(b Backend, pattern string) (string, error) {
	if _, ok := Base(b).(osdisk); ok {
		return osMkdirTemp(pattern)
	}
	dir := pattern + uniqueSuffix()
	return dir, b.MkdirAll(dir)
}

// RemoveAll removes every entry under dir plus dir itself, best effort.
// On an eventually-consistent backend it first waits out the publish
// horizon: a List taken inside the visibility window would miss
// freshly-published versions and leak them past the cleanup.
func RemoveAll(b Backend, dir string) error {
	if _, ok := Base(b).(osdisk); ok {
		return osRemoveAll(dir)
	}
	Settle(b)
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

func sortedNames(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ParseSpec builds a backend from a CLI -backend spec:
//
//	osdisk
//	objstore                         (default 25ms visibility delay)
//	objstore:delay=5ms
//	objstore:root=/tmp/store         (persistent root, for cross-process runs)
//	flaky:seed=3                     (flaky over osdisk)
//	flaky:base=objstore,seed=3,count=8,delay=5ms,kinds=transient
//
// Every backend is returned bare; callers that want the retry/degrade
// policy wrap the result with Retry themselves (the CLIs do).
func ParseSpec(spec string) (Backend, error) {
	kind, args, _ := strings.Cut(spec, ":")
	opts := map[string]string{}
	if args != "" {
		for _, kv := range strings.Split(args, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("storage: backend spec %q: want key=value, got %q", spec, kv)
			}
			opts[strings.TrimSpace(k)] = strings.TrimSpace(v)
		}
	}
	delay := 25 * time.Millisecond
	if v, ok := opts["delay"]; ok {
		d, err := time.ParseDuration(v)
		if err != nil {
			return nil, fmt.Errorf("storage: backend spec %q: delay: %w", spec, err)
		}
		delay = d
	}
	switch kind {
	case "", "osdisk":
		return OS(), nil
	case "objstore":
		return NewObjStore(ObjStoreOptions{Root: opts["root"], VisibilityDelay: delay}), nil
	case "flaky":
		var base Backend
		switch opts["base"] {
		case "", "osdisk":
			base = OS()
		case "objstore":
			base = NewObjStore(ObjStoreOptions{Root: opts["root"], VisibilityDelay: delay})
		default:
			return nil, fmt.Errorf("storage: backend spec %q: unknown base %q", spec, opts["base"])
		}
		var seed uint64 = 1
		if v, ok := opts["seed"]; ok {
			if _, err := fmt.Sscanf(v, "%d", &seed); err != nil {
				return nil, fmt.Errorf("storage: backend spec %q: seed: %w", spec, err)
			}
		}
		count := 0
		if v, ok := opts["count"]; ok {
			if _, err := fmt.Sscanf(v, "%d", &count); err != nil {
				return nil, fmt.Errorf("storage: backend spec %q: count: %w", spec, err)
			}
		}
		gen := GenOptions{Count: count}
		if v, ok := opts["kinds"]; ok {
			switch v {
			case "transient":
				gen.Kinds = []FaultKind{faultLatency, FaultTransient}
			case "all":
			default:
				return nil, fmt.Errorf("storage: backend spec %q: kinds must be transient|all", spec)
			}
		}
		return NewFlaky(base, GenSchedule(seed, gen)), nil
	default:
		return nil, fmt.Errorf("storage: unknown backend %q (want osdisk|objstore|flaky)", kind)
	}
}
