package colfmt

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/recorder"
	"repro/internal/storage"
)

// DirReader holds every rank stream of a trace directory open for
// cursor-based decoding: columnar ranks stay memory-mapped and decode
// zero-copy through their cursors; v1 ranks are materialized once behind a
// slice cursor (the compatibility shim). Feed Cursors() to
// core.ExtractCursors (or core.ExtractCursorsSharedCtx keyed by the
// DirReader) to run extraction without ever building Trace.PerRank.
type DirReader struct {
	Meta    recorder.Meta
	streams []dirStream
}

type dirStream struct {
	r  *Reader // columnar; nil when the rank file was v1
	v1 []recorder.Record
}

// OpenDirOn opens a trace directory for cursor-based decoding, sniffing
// each rank file's format in parallel across workers. Strict: any damaged
// stream fails the open.
func OpenDirOn(b storage.Backend, dir string, workers int) (*DirReader, error) {
	storage.Settle(b)
	meta, err := loadMeta(b, dir)
	if err != nil {
		return nil, err
	}
	d := &DirReader{Meta: meta, streams: make([]dirStream, meta.Ranks)}
	errs := make([]error, meta.Ranks)
	_ = core.ParallelForCtx(context.Background(), meta.Ranks, workers, func(rank int) {
		errs[rank] = d.openStream(b, dir, rank)
	})
	for rank, err := range errs {
		if err != nil {
			_ = d.Close()
			return nil, fmt.Errorf("recorder: reading rank %d: %w", rank, err)
		}
	}
	return d, nil
}

func (d *DirReader) openStream(b storage.Backend, dir string, rank int) error {
	path := filepath.Join(dir, recorder.RankFileName(rank))
	data, unmap, err := readStream(b, path)
	if err != nil {
		return err
	}
	if Sniff(data) {
		r, rerr := NewReader(data)
		if rerr != nil {
			if unmap != nil {
				_ = unmap()
			}
			return rerr
		}
		r.unmap = unmap
		if r.Rank() != rank {
			_ = r.Close()
			return fmt.Errorf("holds rank %d", r.Rank())
		}
		if !r.HasFooter() {
			// A strict open refuses torn streams up front rather than
			// failing mid-extraction.
			_ = r.Close()
			return &recorder.TruncatedError{Declared: uint64(r.Declared())}
		}
		d.streams[rank].r = r
		return nil
	}
	defer func() {
		if unmap != nil {
			_ = unmap()
		}
	}()
	gotRank, recs, derr := recorder.DecodeRankStream(bytes.NewReader(data))
	if derr != nil {
		return derr
	}
	if gotRank != rank {
		return fmt.Errorf("holds rank %d", gotRank)
	}
	d.streams[rank].v1 = recs
	return nil
}

// Cursors returns one fresh single-use cursor per rank, in rank order.
func (d *DirReader) Cursors() []core.RecordCursor {
	out := make([]core.RecordCursor, len(d.streams))
	for i := range d.streams {
		if r := d.streams[i].r; r != nil {
			out[i] = r.Cursor()
		} else {
			out[i] = core.SliceCursor(d.streams[i].v1)
		}
	}
	return out
}

// Close releases every mapping. Extractions must be finished first; the
// FileAccesses they produced remain valid (paths are interned strings,
// intervals are values).
func (d *DirReader) Close() error {
	var first error
	for i := range d.streams {
		if r := d.streams[i].r; r != nil {
			if err := r.Close(); err != nil && first == nil {
				first = err
			}
			d.streams[i].r = nil
		}
	}
	return first
}
