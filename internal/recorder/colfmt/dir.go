package colfmt

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/recorder"
	"repro/internal/storage"
)

// Directory-level trace I/O with per-file format sniffing: both formats
// share the v1 on-disk shape — "trace.meta" JSON plus one "rank_NNNNN.rec"
// stream per rank — and the magic bytes inside each stream pick the
// decoder, so columnar, v1, and even mixed directories all load through one
// entry point. Loads shard rank files across the bounded worker pool
// (core.ParallelForCtx, under a background context that never cancels, so
// every rank runs): decode work is embarrassingly parallel per stream and
// the fold back into Trace.PerRank is index-addressed, so the result is
// byte-identical to a serial load.

// Format selects an on-disk trace encoding.
type Format int

const (
	// FormatColumnar is the SEMFSCOL1 columnar format (the default writer).
	FormatColumnar Format = iota
	// FormatV1 is the record-framed SEMFSTR1 compatibility format.
	FormatV1
)

func (f Format) String() string {
	switch f {
	case FormatColumnar:
		return "columnar"
	case FormatV1:
		return "v1"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// ParseFormat maps a CLI -format value to a Format.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "columnar":
		return FormatColumnar, nil
	case "v1":
		return FormatV1, nil
	default:
		return 0, fmt.Errorf("colfmt: unknown format %q (want columnar or v1)", s)
	}
}

// SaveDirOn persists a trace as a directory in the given format: the
// "trace.meta" JSON plus one rank stream per rank. Only the per-rank
// encoder depends on the format; FormatV1 streams are exactly
// recorder.EncodeRankStream's bytes.
func SaveDirOn(b storage.Backend, dir string, tr *recorder.Trace, f Format) error {
	encode := func(w io.Writer, rank int, rs []recorder.Record) error {
		return EncodeStream(w, rank, rs, EncodeOptions{})
	}
	if f == FormatV1 {
		encode = recorder.EncodeRankStream
	}
	if err := b.MkdirAll(dir); err != nil {
		return err
	}
	metaBytes, err := json.MarshalIndent(tr.Meta, "", "  ")
	if err != nil {
		return err
	}
	if err := writeFileOn(b, filepath.Join(dir, "trace.meta"), metaBytes); err != nil {
		return err
	}
	for rank, rs := range tr.PerRank {
		w, err := b.Open(filepath.Join(dir, recorder.RankFileName(rank)), storage.OCreate|storage.OWronly|storage.OTrunc, 0o644)
		if err != nil {
			return err
		}
		err = encode(w, rank, rs)
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("colfmt: writing rank %d: %w", rank, err)
		}
	}
	return nil
}

// writeFileOn mirrors os.WriteFile on a backend: create/truncate, write,
// close, no fsync.
func writeFileOn(b storage.Backend, path string, data []byte) error {
	f, err := b.Open(path, storage.OCreate|storage.OWronly|storage.OTrunc, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(data)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// readStream returns a stream's bytes: mapped (unmap non-nil) when legal,
// read through the backend otherwise.
func readStream(b storage.Backend, path string) (data []byte, unmap func() error, err error) {
	if storage.MapsFiles(b) {
		if d, u, merr := mapFile(path); merr == nil {
			bytesMapped.Add(int64(len(d)))
			return d, u, nil
		}
		// Any mmap failure (missing file, exotic fs, non-unix) falls back to
		// the backend read, which also surfaces the canonical error.
	}
	d, err := b.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	bytesRead.Add(int64(len(d)))
	return d, nil, nil
}

// streamResult is one rank file's decode outcome, filled concurrently and
// folded in rank order for deterministic error and salvage reporting.
type streamResult struct {
	recs     []recorder.Record
	stats    Stats
	columnar bool
	declared int  // header-declared records (columnar only)
	headerOK bool // header parsed, so declared is trustworthy
	err      error
}

// decodeRankFile sniffs and decodes one rank stream. Lenient walks salvage;
// strict walks surface the first problem.
func decodeRankFile(b storage.Backend, dir string, rank int, lenient bool) streamResult {
	data, unmap, err := readStream(b, filepath.Join(dir, recorder.RankFileName(rank)))
	if err != nil {
		return streamResult{err: err}
	}
	defer func() {
		if unmap != nil {
			_ = unmap()
		}
	}()
	if Sniff(data) {
		return decodeColumnar(data, rank, lenient)
	}
	return decodeV1(data, rank)
}

// decodeV1 decodes a v1 (or unrecognized — the v1 decoder reports its
// canonical bad-magic error) rank stream. Strings are copied during
// decode, so the records outlive data's mapping.
func decodeV1(data []byte, rank int) streamResult {
	gotRank, recs, derr := recorder.DecodeRankStream(bytes.NewReader(data))
	if derr == nil && gotRank != rank {
		derr = fmt.Errorf("holds rank %d", gotRank)
		recs = nil // records belong to another rank; keeping them would lie
	}
	return streamResult{recs: recs, err: derr}
}

// rankError is the error every strict directory read reports for a damaged
// or missing rank stream.
func rankError(rank int, err error) error {
	return fmt.Errorf("recorder: reading rank %d: %w", rank, err)
}

// OpenRankOn opens one rank stream of a trace directory for a single
// strict forward walk, sniffing its format: a columnar file yields a
// Cursor over its (memory-mapped) bytes, and release unmaps them once the
// walk is done; a v1 file is decoded to a slice on open. Every failure —
// at open or, through the stream's Err, mid-walk — is exactly the error
// LoadDirOn reports for that rank.
func OpenRankOn(b storage.Backend, dir string, rank int) (s core.RecordStream, release func(), err error) {
	data, unmap, err := readStream(b, filepath.Join(dir, recorder.RankFileName(rank)))
	if err != nil {
		return nil, nil, rankError(rank, err)
	}
	release = func() {
		if unmap != nil {
			_ = unmap()
		}
	}
	if !Sniff(data) {
		res := decodeV1(data, rank)
		release()
		if res.err != nil {
			return nil, nil, rankError(rank, res.err)
		}
		return core.NewSliceStream(res.recs), func() {}, nil
	}
	r, err := NewReader(data)
	if err == nil && r.Rank() != rank {
		err = fmt.Errorf("holds rank %d", r.Rank())
	}
	if err != nil {
		release()
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

func decodeColumnar(data []byte, rank int, lenient bool) streamResult {
	r, err := NewReader(data)
	if err != nil {
		return streamResult{columnar: true, err: err}
	}
	res := streamResult{columnar: true, declared: r.Declared(), headerOK: true}
	if r.Rank() != rank {
		res.err = fmt.Errorf("holds rank %d", r.Rank())
		return res
	}
	if lenient {
		res.recs, res.stats, res.err = r.MaterializeLenient()
	} else {
		res.recs, res.err = r.Materialize()
		res.stats = Stats{Records: len(res.recs)}
	}
	return res
}

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
	if meta.Ranks > maxRank {
		return meta, fmt.Errorf("recorder: trace.meta declares %d ranks (limit %d)", meta.Ranks, maxRank)
	}
	return meta, nil
}

// LoadDirOn loads a trace directory, decoding rank files in parallel across
// workers (core.EffectiveWorkers semantics) and sniffing each stream's
// format. Any damaged stream fails the load; the reported error is the
// lowest-ranked failure, so retries see a deterministic message.
func LoadDirOn(b storage.Backend, dir string, workers int) (*recorder.Trace, error) {
	meta, err := MetaOn(b, dir)
	if err != nil {
		return nil, err
	}
	results := make([]streamResult, meta.Ranks)
	_ = core.ParallelForCtx(context.Background(), meta.Ranks, workers, func(rank int) {
		results[rank] = decodeRankFile(b, dir, rank, false)
	})
	tr := &recorder.Trace{Meta: meta, PerRank: make([][]recorder.Record, meta.Ranks)}
	for rank := range results {
		if rerr := results[rank].err; rerr != nil {
			return nil, rankError(rank, rerr)
		}
		tr.PerRank[rank] = results[rank].recs
	}
	return tr, nil
}

// LoadDirLenientOn is the degraded-mode LoadDirOn: rank files still decode
// in parallel, every record that decodes cleanly is kept — for columnar
// streams that is per-block salvage, including blocks after a corrupt one
// when the footer survived — and the Salvage accumulates in rank order, so
// its counts and error list are deterministic regardless of worker
// scheduling. It fails only when the metadata is unusable or not a single
// record survives.
func LoadDirLenientOn(b storage.Backend, dir string, workers int) (*recorder.Trace, *recorder.Salvage, error) {
	meta, err := MetaOn(b, dir)
	if err != nil {
		return nil, nil, err
	}
	results := make([]streamResult, meta.Ranks)
	_ = core.ParallelForCtx(context.Background(), meta.Ranks, workers, func(rank int) {
		results[rank] = decodeRankFile(b, dir, rank, true)
	})
	tr := &recorder.Trace{Meta: meta, PerRank: make([][]recorder.Record, meta.Ranks)}
	sal := &recorder.Salvage{Ranks: meta.Ranks}
	for rank := range results {
		res := &results[rank]
		sal.Blocks += res.stats.Blocks
		sal.BlocksDropped += res.stats.Skipped
		switch {
		case res.err == nil && res.stats.Skipped == 0:
			sal.Full++
		case res.err == nil:
			// Walked to the end but corrupt blocks were skipped along the way.
			sal.Truncated++
			sal.Salvaged += len(res.recs)
			sal.Errs = append(sal.Errs, fmt.Errorf("%s: %d corrupt blocks skipped (%d of %d records recovered)",
				recorder.RankFileName(rank), res.stats.Skipped, len(res.recs), res.declared))
		case len(res.recs) > 0:
			sal.Truncated++
			sal.Salvaged += len(res.recs)
			sal.Errs = append(sal.Errs, fmt.Errorf("%s: %w", recorder.RankFileName(rank), res.err))
		default:
			sal.Unreadable++
			sal.Errs = append(sal.Errs, fmt.Errorf("%s: %w", recorder.RankFileName(rank), res.err))
		}
		if res.columnar && res.headerOK {
			// The columnar header declares the count up front, so the lost
			// tail is exact even when the cut ate the footer.
			if d := res.declared - len(res.recs); d > 0 {
				sal.Dropped += d
			}
		} else if !res.columnar {
			var te *recorder.TruncatedError
			if errors.As(res.err, &te) {
				sal.Dropped += te.Dropped()
			}
		}
		tr.PerRank[rank] = res.recs
		sal.Records += len(res.recs)
	}
	sal.Observe()
	salvageBlocksSkipped.Add(int64(sal.BlocksDropped))
	salvageRecordsDropped.Add(int64(sal.Dropped))
	if sal.Records == 0 {
		return nil, sal, fmt.Errorf("recorder: %s: nothing salvageable", dir)
	}
	return tr, sal, nil
}

// ConvertDirOn loads a trace directory (either format, strict) and rewrites
// it under dst in the requested format — the engine behind semtrace
// -convert. src and dst may not be the same directory.
func ConvertDirOn(b storage.Backend, src, dst string, f Format, workers int) (*recorder.Trace, error) {
	if filepath.Clean(src) == filepath.Clean(dst) {
		return nil, fmt.Errorf("colfmt: convert in place (%s) not supported", src)
	}
	tr, err := LoadDirOn(b, src, workers)
	if err != nil {
		return nil, err
	}
	if err := SaveDirOn(b, dst, tr, f); err != nil {
		return nil, err
	}
	return tr, nil
}
