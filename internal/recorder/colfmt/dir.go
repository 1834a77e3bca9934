package colfmt

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/recorder"
	"repro/internal/recorder/colwire"
	"repro/internal/storage"
)

// Directory-level trace I/O: a trace directory is the "trace.meta" JSON
// plus one columnar "rank_NNNNN.rec" stream per rank. Every read goes
// through one opener (openRank), whether a scan walks the ranks
// (OpenRankOn, OpenRanksLenientOn) or LoadDirOn decodes them into a trace,
// and a rank file that is not columnar fails there with ErrBadMagic. Loads
// shard rank files across the bounded worker pool (core.ParallelForCtx,
// under a background context that never cancels, so every rank runs):
// decode work is embarrassingly parallel per stream and each rank lands in
// its own log, so the result is byte-identical to a serial load.

// SaveDirOn persists a trace as a columnar directory: the "trace.meta"
// JSON plus one rank stream per rank, as recorder.Trace.WriteStream
// writes it.
func SaveDirOn(b storage.Backend, dir string, tr *recorder.Trace) error {
	if err := b.MkdirAll(dir); err != nil {
		return err
	}
	metaBytes, err := json.MarshalIndent(tr.Meta, "", "  ")
	if err != nil {
		return err
	}
	// put mirrors os.WriteFile on the backend: create/truncate, write,
	// close, no fsync.
	put := func(name string, write func(io.Writer) error) error {
		w, err := b.Open(filepath.Join(dir, name), storage.OCreate|storage.OWronly|storage.OTrunc, 0o644)
		if err != nil {
			return err
		}
		err = write(w)
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		return err
	}
	if err := put("trace.meta", func(w io.Writer) error { _, err := w.Write(metaBytes); return err }); err != nil {
		return err
	}
	for rank := range tr.PerRank {
		write := func(w io.Writer) error { return tr.WriteStream(w, rank) }
		if err := put(recorder.RankFileName(rank), write); err != nil {
			return fmt.Errorf("colfmt: writing rank %d: %w", rank, err)
		}
	}
	return nil
}

// openRank reads rank's stream file of dir — mapped when the backend
// allows it, read through the backend otherwise — and opens its Reader,
// whose bytes stay mapped until release. A file that cannot be read, is not
// columnar, has an unusable header or holds another rank fails the open.
func openRank(b storage.Backend, dir string, rank int) (r *Reader, release func(), err error) {
	path := filepath.Join(dir, recorder.RankFileName(rank))
	var data []byte
	if storage.MapsFiles(b) {
		// Any mmap failure (missing file, exotic fs, non-unix) falls back to
		// the backend read, which also surfaces the canonical error.
		if d, unmap, merr := mapFile(path); merr == nil {
			bytesMapped.Add(int64(len(d)))
			data, release = d, func() { _ = unmap() }
		}
	}
	if release == nil {
		if data, err = b.ReadFile(path); err != nil {
			return nil, nil, err
		}
		release = func() {}
	}
	r, err = NewReader(data)
	if err == nil && r.rank != rank {
		err = fmt.Errorf("holds rank %d", r.rank)
	}
	if err != nil {
		release()
		return nil, nil, err
	}
	return r, release, nil
}

// rankError is the error every strict directory read reports for a damaged
// or missing rank stream.
func rankError(rank int, err error) error {
	return fmt.Errorf("recorder: reading rank %d: %w", rank, err)
}

// OpenRankOn opens one rank stream of a trace directory for a single
// strict forward walk: a Cursor over its mapped bytes, which release
// unmaps. Every failure — at open or, through the stream's Err, mid-walk —
// is exactly the error LoadDirOn reports for that rank.
func OpenRankOn(b storage.Backend, dir string, rank int) (s core.RecordStream, release func(), err error) {
	r, release, err := openRank(b, dir, rank)
	if err != nil {
		return nil, nil, rankError(rank, err)
	}
	return &rankCursor{Cursor: r.Cursor(), rank: rank}, release, nil
}

// rankCursor is a strict Cursor whose Err carries LoadDirOn's wording.
type rankCursor struct {
	*Cursor
	rank int
}

func (c *rankCursor) Err() error {
	if err := c.Cursor.Err(); err != nil {
		return rankError(c.rank, err)
	}
	return nil
}

// rankSalvage is what a lenient walk of one rank stream recovered.
// declared is the header's record count of a stream that opened; a file
// that did not (one holding another rank, say) declares nothing, so its
// records do not count as dropped.
type rankSalvage struct {
	stats    cursorStats
	declared int
	err      error
}

// OpenRanksLenientOn returns the opener of a degraded-mode scan over a
// trace directory's rank streams and the fold of what it recovered. No
// open fails and no stream errs: a stream that opens is walked by a
// lenientCursor, and one that does not is empty. Releasing a rank records
// its walk in a rank-indexed slot; salvage folds the slots in rank order,
// so counts and errors do not depend on scheduling, and fails if no record
// survived.
func OpenRanksLenientOn(b storage.Backend, dir string, ranks int) (open func(rank int) (core.RecordStream, func(), error), salvage func() (*recorder.Salvage, error)) {
	slots := make([]rankSalvage, ranks)
	open = func(rank int) (core.RecordStream, func(), error) {
		slot := &slots[rank]
		r, release, err := openRank(b, dir, rank)
		if err != nil {
			slot.err = err
			return lenientCursor{&Cursor{done: true}}, func() {}, nil
		}
		c := r.lenientCursor()
		slot.declared = r.declaredRecords()
		return lenientCursor{c}, func() {
			slot.stats, slot.err = c.decodeStats(), c.Err()
			release()
		}, nil
	}
	salvage = func() (*recorder.Salvage, error) {
		sal := &recorder.Salvage{Ranks: ranks}
		for rank := range slots {
			res := &slots[rank]
			n := res.stats.Records
			sal.Blocks += res.stats.Blocks
			sal.BlocksDropped += res.stats.Skipped
			switch {
			case res.err == nil && res.stats.Skipped == 0:
				sal.Full++
			case res.err == nil:
				// Walked to the end but corrupt blocks were skipped along the way.
				sal.Truncated++
				sal.Salvaged += n
				sal.Errs = append(sal.Errs, fmt.Errorf("%s: %d corrupt blocks skipped (%d of %d records recovered)",
					recorder.RankFileName(rank), res.stats.Skipped, n, res.declared))
			case n > 0:
				sal.Truncated++
				sal.Salvaged += n
				sal.Errs = append(sal.Errs, fmt.Errorf("%s: %w", recorder.RankFileName(rank), res.err))
			default:
				sal.Unreadable++
				sal.Errs = append(sal.Errs, fmt.Errorf("%s: %w", recorder.RankFileName(rank), res.err))
			}
			// The header declares the count up front, so the lost tail is
			// exact even when the cut ate the footer.
			if d := res.declared - n; d > 0 {
				sal.Dropped += d
			}
			sal.Records += n
		}
		if sal.Records == 0 {
			return sal, fmt.Errorf("recorder: %s: nothing salvageable", dir)
		}
		return sal, nil
	}
	return open, salvage
}

// lenientCursor is a salvaging Cursor whose losses go to the Salvage.
type lenientCursor struct{ *Cursor }

func (lenientCursor) Err() error { return nil }

// MetaOn settles the backend (see storage.Settle) and reads and validates
// a trace directory's trace.meta.
func MetaOn(b storage.Backend, dir string) (recorder.Meta, error) {
	storage.Settle(b)
	var meta recorder.Meta
	metaBytes, err := b.ReadFile(filepath.Join(dir, "trace.meta"))
	if err != nil {
		return meta, err
	}
	if err := json.Unmarshal(metaBytes, &meta); err != nil {
		return meta, fmt.Errorf("recorder: parsing trace.meta: %w", err)
	}
	if meta.Ranks <= 0 {
		return meta, errors.New("recorder: trace.meta has no ranks")
	}
	// The rank count sizes every per-rank table a load allocates, so it is
	// bounded by the rank streams' own wire limit.
	if meta.Ranks > colwire.MaxRank {
		return meta, fmt.Errorf("recorder: trace.meta declares %d ranks (limit %d)", meta.Ranks, colwire.MaxRank)
	}
	return meta, nil
}

// LoadDirOn loads a trace directory, decoding rank files in parallel across
// workers (core.EffectiveWorkers semantics). Any damaged stream fails the
// load; the reported error is the lowest-ranked failure, so retries see a
// deterministic message.
func LoadDirOn(b storage.Backend, dir string, workers int) (*recorder.Trace, error) {
	meta, err := MetaOn(b, dir)
	if err != nil {
		return nil, err
	}
	tracers := make([]*recorder.RankTracer, meta.Ranks)
	errs := make([]error, meta.Ranks)
	_ = core.ParallelForCtx(context.Background(), meta.Ranks, workers, func(rank int) {
		r, release, err := openRank(b, dir, rank)
		if err == nil {
			tracers[rank], err = r.replay()
			release()
		}
		errs[rank] = err
	})
	for rank, err := range errs {
		if err != nil {
			return nil, rankError(rank, err)
		}
	}
	return recorder.TraceOf(meta, tracers)
}
