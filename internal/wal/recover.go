package wal

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/frame"
	"repro/internal/payload"
	"repro/internal/pfs"
	"repro/internal/storage"
)

// recoverDirOn salvages every per-rank log file under dir on backend b. The
// returned records are, per rank, every write that was ever acknowledged
// (logs are append-only and never truncated while live, so drained records
// remain — replaying one is an idempotent same-bytes overwrite). A torn
// tail on any file is a write that was never acknowledged; it is dropped
// and counted. A zero-length log file is a rank that opened its log but was
// killed before the first acked append: it recovers as an explicit empty
// record list, distinct from a rank with no log file at all (no map entry).
//
// On an eventually-consistent backend, recovery first waits out the
// publish-visibility horizon (storage.Settle) so the List and the reads see
// every version a crashed writer managed to publish.
func recoverDirOn(b storage.Backend, dir string) (map[int][]logRecord, map[int]frame.Stats, error) {
	storage.Settle(b)
	names, err := b.List(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	sort.Strings(names)
	recs := make(map[int][]logRecord)
	stats := make(map[int]frame.Stats)
	for _, name := range names {
		var rank int
		if !strings.HasSuffix(name, ".wal") {
			continue
		}
		if _, err := fmt.Sscanf(name, "rank-%d.wal", &rank); err != nil {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := b.Open(path, storage.ORdonly, 0)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		r, s, err := recoverRecords(f)
		f.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("wal: recovering %s: %w", path, err)
		}
		if r == nil {
			r = []logRecord{} // zero-length log: present but empty, not missing
		}
		recs[rank] = r
		stats[rank] = s
	}
	return recs, stats, nil
}

// replayRecords feeds recovered records back through the pfs data path: one client
// per rank, records in log order (= the order the application was acked
// in), each write carrying the simulated timestamp captured at ack time,
// then a commit+close per touched path so commit/session-model writes
// publish exactly as an uninterrupted run's final barrier would have
// published them. Ranks replay in ascending order, serially — the replay
// history is deterministic and, because per-rank program order is the log
// order, satisfies every model's formal spec.
func replayRecords(fs *pfs.FileSystem, recs map[int][]logRecord) error {
	ranks := make([]int, 0, len(recs))
	var maxNow uint64
	for r, rr := range recs {
		ranks = append(ranks, r)
		for _, rec := range rr {
			if rec.Now > maxNow {
				maxNow = rec.Now
			}
		}
	}
	sort.Ints(ranks)
	now := maxNow
	for _, r := range ranks {
		c := fs.NewClient(r)
		handles := make(map[string]*pfs.Handle)
		var order []string
		for _, rec := range recs[r] {
			h, ok := handles[rec.Path]
			if !ok {
				var err error
				h, _, err = c.Open(rec.Path, pfs.OCreat|pfs.ORdwr, rec.Now)
				if err != nil {
					return fmt.Errorf("wal: replay rank %d open %s: %w", r, rec.Path, err)
				}
				handles[rec.Path] = h
				order = append(order, rec.Path)
			}
			if _, err := h.Write(rec.Off, payload.Bytes(rec.Data), rec.Now); err != nil {
				return fmt.Errorf("wal: replay rank %d %s+%d: %w", r, rec.Path, rec.Off, err)
			}
		}
		for _, path := range order {
			now += 10
			if _, err := handles[path].Commit(now); err != nil {
				return fmt.Errorf("wal: replay rank %d commit %s: %w", r, path, err)
			}
			now += 10
			if _, err := handles[path].Close(now); err != nil {
				return fmt.Errorf("wal: replay rank %d close %s: %w", r, path, err)
			}
		}
	}
	return nil
}
