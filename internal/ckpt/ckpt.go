// Package ckpt is the durable, checksummed checkpoint store behind the
// repo's crash-safe sweeps. It eats the paper's dog food: the store's only
// durability primitives are the commit points the paper says applications
// actually rely on — an atomic write-temp → fsync → rename for the manifest
// and an append → fsync write-ahead journal for completed work units. A
// record is committed exactly when its fsync returns; recovery CRC-verifies
// every record, salvages the valid prefix of a torn tail (the shape a crash
// mid-append leaves behind), and truncates the damage so the journal stays
// append-clean.
//
// The store is generic: keys are strings, blobs are opaque bytes, and the
// manifest pins whatever identity the caller needs (schema version, sweep
// scale, consistency model) so a resume against the wrong directory fails
// loudly instead of replaying foreign results. internal/experiments journals
// completed configuration results (see EncodeResult/DecodeResult);
// cmd/semanalyze journals rendered analyses; cmd/pfsbench journals ablation
// cells.
package ckpt

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/frame"
	"repro/internal/storage"
)

// SchemaVersion is the on-disk format version stamped into every manifest.
// OpenOn refuses a store written by a different version.
const SchemaVersion = 1

const (
	manifestName = "ckpt.json"
	journalName  = "journal.wal"
)

// Manifest identifies what a checkpoint directory holds. OpenOn compares every
// field; a mismatch means the directory belongs to a different run shape and
// must not be resumed from.
type Manifest struct {
	Version   int    `json:"version"`
	Kind      string `json:"kind"` // e.g. "experiments.sweep", "semanalyze", "pfsbench"
	Ranks     int    `json:"ranks,omitempty"`
	PPN       int    `json:"ppn,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`
	Semantics string `json:"semantics,omitempty"`
	Params    string `json:"params,omitempty"` // canonical workload parameters
}

// ErrMismatch reports a checkpoint directory whose manifest does not match
// the run being resumed.
var ErrMismatch = errors.New("ckpt: checkpoint belongs to a different run")

// ErrBackendConfig marks a store whose storage backend proved persistently
// unavailable: the retry policy exhausted its budget, so this is an
// operator/configuration problem (wrong endpoint, dead disk), not data
// damage. The ckpt layer demotes storage.ErrUnavailable to this — a sweep
// must refuse to start rather than half-run against a store it cannot
// commit to.
var ErrBackendConfig = errors.New("ckpt: storage backend unavailable (configuration error)")

// demote maps an exhausted-backend failure onto the configuration-error
// rung of the degradation ladder; other errors pass through.
func demote(err error) error {
	if err != nil && errors.Is(err, storage.ErrUnavailable) {
		return fmt.Errorf("%w: %w", ErrBackendConfig, err)
	}
	return err
}

// Store is a durable key → blob journal store rooted in one directory. It is
// safe for concurrent appends (sweep workers commit results as they finish).
type Store struct {
	dir     string
	backend storage.Backend

	mu        sync.Mutex
	f         storage.File
	committed map[string][]byte
	stats     RecoverStats
}

// OpenOn opens (creating if needed) the checkpoint store at dir on backend
// b. m.Version is stamped with SchemaVersion. A fresh directory gets the
// manifest written atomically; an existing one must carry an equal
// manifest, and its journal is recovered — CRC-verified, torn tail salvaged
// and truncated — before the store accepts appends. On an eventually-
// consistent backend the open first waits out the publish-visibility
// horizon so resume sees everything a crashed run managed to commit. A
// persistently unavailable backend surfaces as ErrBackendConfig.
func OpenOn(b storage.Backend, dir string, m Manifest) (*Store, error) {
	m.Version = SchemaVersion
	storage.Settle(b)
	if err := b.MkdirAll(dir); err != nil {
		return nil, demote(fmt.Errorf("ckpt: %w", err))
	}
	mpath := filepath.Join(dir, manifestName)
	existing, err := b.ReadFile(mpath)
	switch {
	case err == nil:
		var have Manifest
		if jerr := json.Unmarshal(existing, &have); jerr != nil {
			return nil, fmt.Errorf("ckpt: parsing %s: %w", mpath, jerr)
		}
		if have != m {
			return nil, fmt.Errorf("%w: %s holds %+v, want %+v", ErrMismatch, dir, have, m)
		}
	case storage.IsNotExist(err):
		jb, jerr := json.MarshalIndent(m, "", "  ")
		if jerr != nil {
			return nil, fmt.Errorf("ckpt: %w", jerr)
		}
		if werr := storage.WriteFileAtomic(b, mpath, append(jb, '\n')); werr != nil {
			return nil, demote(fmt.Errorf("ckpt: %w", werr))
		}
	default:
		return nil, demote(fmt.Errorf("ckpt: %w", err))
	}

	byKey := make(map[string][]byte)
	f, fst, err := storage.OpenFrameLog(b, filepath.Join(dir, journalName), recMagic, maxPayload, recoverJournal(byKey))
	if err != nil {
		return nil, demote(fmt.Errorf("ckpt: %w", err))
	}
	stats := RecoverStats{Stats: fst, Keys: len(byKey)}
	recoverKept.Add(int64(stats.Records))
	recoverDropped.Add(int64(stats.Dropped))
	recoverTruncated.Add(stats.TailBytes)
	return &Store{dir: dir, backend: b, f: f, committed: byKey, stats: stats}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns what recovery found when the store was opened.
func (s *Store) Stats() RecoverStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Len returns the number of committed keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.committed)
}

// Keys returns the committed keys, sorted.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortedKeys(s.committed)
}

// Lookup returns the committed blob for key. Every call counts toward the
// ckpt.resume.{hits,misses} telemetry — callers consult the store exactly
// when deciding whether cached work can replace re-execution.
func (s *Store) Lookup(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.committed[key]
	if ok {
		resumeHits.Inc()
	} else {
		resumeMisses.Inc()
	}
	return b, ok
}

// Append commits one key → blob record: it is durable (and visible to a
// future Recover) exactly when Append returns nil. Appending an existing key
// supersedes it (last-wins on recovery).
func (s *Store) Append(key string, blob []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errors.New("ckpt: store is closed")
	}
	if _, err := appendRecord(s.f, key, blob); err != nil {
		return demote(err)
	}
	s.committed[key] = append([]byte(nil), blob...)
	return nil
}

// Close releases the journal file. The store's contents are already durable;
// Close exists for tidiness, not for commit.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// ReadJournalOn recovers dir's journal read-only: committed keys (sorted)
// plus salvage stats, without truncating damage or touching the manifest.
// Tooling and the kill-and-recover harness use it to inspect what a crashed
// run committed; on an eventual backend it waits out the visibility horizon
// first.
func ReadJournalOn(b storage.Backend, dir string) ([]string, RecoverStats, error) {
	storage.Settle(b)
	f, err := b.Open(filepath.Join(dir, journalName), storage.ORdonly, 0)
	if err != nil {
		return nil, RecoverStats{}, fmt.Errorf("ckpt: %w", err)
	}
	defer f.Close()
	byKey := make(map[string][]byte)
	fst, err := frame.Scan(f, recMagic, maxPayload, recoverJournal(byKey))
	stats := RecoverStats{Stats: fst, Keys: len(byKey)}
	if err != nil {
		return nil, stats, fmt.Errorf("ckpt: journal read: %w", err)
	}
	return sortedKeys(byKey), stats, nil
}

func sortedKeys(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// The manifest commit (write-temp → fsync → rename → fsync(dir) — the
// discipline the paper's applications rely on, applied to our own metadata)
// now lives in storage.WriteFileAtomic so every backend supplies its own
// strongest version of it.
