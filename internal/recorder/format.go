package recorder

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The v1 record-framed trace format (SEMFSTR1), one stream per rank. It is
// read-only here: traces are written columnar (internal/recorder/colfmt),
// and colfmt's loaders sniff each rank file and hand v1 streams to
// DecodeRankStream. The v1 writer lives in internal/recorder/v1test, for
// the tests and benchmarks that keep this decoder covered. Layout:
//
//	magic "SEMFSTR1" (8 bytes)
//	rank (uvarint)
//	count (uvarint)
//	count records, each:
//	  layer (1 byte), func (uvarint)
//	  tstart (uvarint), tend delta from tstart (uvarint)
//	  path ref, path2 ref (see below)
//	  nargs (uvarint), args (varint each)
//
// Path references use a per-stream string table built on the fly: 0 means
// "no path", 1 means "new string follows (uvarint len + bytes)" and is
// assigned the next table index, and k >= 2 means table entry k-2.
const traceMagic = "SEMFSTR1"

// ErrTruncated reports a rank stream that ended mid-record — a crashed or
// torn-off writer. DecodeRankStream returns it alongside every record
// decoded before the cut, so callers can degrade gracefully instead of
// discarding the salvageable prefix (see colfmt.OpenRanksLenientOn).
var ErrTruncated = errors.New("recorder: trace stream truncated")

// TruncatedError is the concrete truncation error: it carries how many
// records the stream header declared and how many decoded before the cut, so
// salvage reporting can say exactly what was kept and what was dropped. It
// matches errors.Is(err, ErrTruncated).
type TruncatedError struct {
	Declared uint64 // records the header promised (0 if the cut precedes the header)
	Decoded  int    // records recovered before the cut
}

func (e *TruncatedError) Error() string {
	if e.Declared > 0 {
		return fmt.Sprintf("%v after %d records (%d of %d declared dropped)",
			ErrTruncated, e.Decoded, e.Dropped(), e.Declared)
	}
	return fmt.Sprintf("%v after %d records", ErrTruncated, e.Decoded)
}

func (e *TruncatedError) Unwrap() error { return ErrTruncated }

// Dropped returns how many declared records were lost to the cut (0 when the
// declared count is unknown).
func (e *TruncatedError) Dropped() int {
	if e.Declared > uint64(e.Decoded) {
		return int(e.Declared) - e.Decoded
	}
	return 0
}

// truncated reports whether err is a short-read condition (the stream ended
// before the declared content did).
func truncated(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// decodeFail wraps a mid-stream decode error, converting short reads into a
// TruncatedError with the salvage position (and, once the header has been
// read, the declared record count) attached.
func decodeFail(declared uint64, nrecords int, err error) error {
	if truncated(err) {
		return &TruncatedError{Declared: declared, Decoded: nrecords}
	}
	return err
}

// DecodeRankStream reads one rank's records from r. On a short read it
// returns every record decoded before the cut together with an error
// wrapping ErrTruncated; on other corruption it likewise returns the valid
// prefix alongside the error. Strict callers treat any error as fatal;
// degraded-mode callers keep the salvaged records.
func DecodeRankStream(r io.Reader) (rank int, records []Record, err error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(traceMagic))
	if _, err = io.ReadFull(br, magic); err != nil {
		return 0, nil, fmt.Errorf("recorder: reading magic: %w", decodeFail(0, 0, err))
	}
	if string(magic) != traceMagic {
		return 0, nil, fmt.Errorf("recorder: bad magic %q", magic)
	}
	var strTable []string
	readStr := func() (string, error) {
		tag, err := binary.ReadUvarint(br)
		if err != nil {
			return "", err
		}
		switch {
		case tag == 0:
			return "", nil
		case tag == 1:
			n, err := binary.ReadUvarint(br)
			if err != nil {
				return "", err
			}
			if n > 1<<20 {
				return "", fmt.Errorf("recorder: string length %d too large", n)
			}
			b := make([]byte, n)
			if _, err := io.ReadFull(br, b); err != nil {
				return "", err
			}
			// Intern once: the table entry and the returned value share one
			// string, so each distinct path costs a single allocation.
			s := string(b)
			strTable = append(strTable, s)
			return s, nil
		default:
			idx := tag - 2
			if idx >= uint64(len(strTable)) {
				return "", fmt.Errorf("recorder: string ref %d out of table (%d entries)", idx, len(strTable))
			}
			return strTable[idx], nil
		}
	}

	urank, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, nil, decodeFail(0, 0, err)
	}
	if urank > 1<<20 {
		return 0, nil, fmt.Errorf("recorder: rank %d out of range", urank)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return int(urank), nil, decodeFail(0, 0, err)
	}
	if count > 1<<30 {
		return 0, nil, fmt.Errorf("recorder: record count %d too large", count)
	}
	// The declared count is attacker-controlled until the stream is fully
	// read: preallocate a bounded amount and let append grow the rest, so a
	// forged header can't demand gigabytes up front.
	prealloc := count
	if prealloc > 4096 {
		prealloc = 4096
	}
	records = make([]Record, 0, prealloc)
	for i := uint64(0); i < count; i++ {
		var rec Record
		rec.Rank = int32(urank)
		layer, err := br.ReadByte()
		if err != nil {
			return int(urank), records, decodeFail(count, len(records), err)
		}
		rec.Layer = Layer(layer)
		fn, err := binary.ReadUvarint(br)
		if err != nil {
			return int(urank), records, decodeFail(count, len(records), err)
		}
		rec.Func = Func(fn)
		if rec.TStart, err = binary.ReadUvarint(br); err != nil {
			return int(urank), records, decodeFail(count, len(records), err)
		}
		dur, err := binary.ReadUvarint(br)
		if err != nil {
			return int(urank), records, decodeFail(count, len(records), err)
		}
		rec.TEnd = rec.TStart + dur
		if rec.TEnd < rec.TStart {
			return int(urank), records, fmt.Errorf("recorder: record %d duration overflows", i)
		}
		if rec.Path, err = readStr(); err != nil {
			return int(urank), records, decodeFail(count, len(records), err)
		}
		if rec.Path2, err = readStr(); err != nil {
			return int(urank), records, decodeFail(count, len(records), err)
		}
		nargs, err := binary.ReadUvarint(br)
		if err != nil {
			return int(urank), records, decodeFail(count, len(records), err)
		}
		if nargs > 64 {
			return int(urank), records, fmt.Errorf("recorder: %d args too many", nargs)
		}
		if nargs > 0 {
			rec.Args = make([]int64, nargs)
			for j := range rec.Args {
				if rec.Args[j], err = binary.ReadVarint(br); err != nil {
					return int(urank), records, decodeFail(count, len(records), err)
				}
			}
		}
		records = append(records, rec)
	}
	return int(urank), records, nil
}

// RankFileName returns the per-rank stream file name ("rank_NNNNN.rec").
// Both trace formats share it — the magic bytes inside pick the decoder —
// so format-sniffing loaders (internal/recorder/colfmt) build paths with it.
func RankFileName(rank int) string {
	return fmt.Sprintf("rank_%05d.rec", rank)
}

// Salvage reports how a degraded-mode scan went: how many rank streams
// were read fully, how many were truncated but partially recovered, and
// how many were unreadable, plus the record counts behind the analysis. It
// is the "what survived" half of colfmt.OpenRanksLenientOn's contract,
// which semfs.AnalyzeDirLenientOn returns beside the analysis.
type Salvage struct {
	Ranks      int // rank streams the metadata declares
	Full       int // streams decoded end-to-end
	Truncated  int // streams cut mid-record; valid prefix recovered
	Unreadable int // streams missing or corrupt beyond salvage
	Records    int // total records recovered
	Salvaged   int // records recovered from truncated/corrupt streams
	// Dropped counts records declared by damaged streams' headers but lost
	// to the cut (0 when a stream died before declaring its count).
	Dropped int
	// Blocks and BlocksDropped are the columnar formats' per-block
	// accounting (zero for v1 streams): column blocks decoded cleanly vs
	// corrupt blocks individually skipped mid-stream. Records behind a torn
	// tail are accounted in Dropped, not here — a cut hides how many blocks
	// it ate, while the header-declared count keeps the record loss exact.
	Blocks        int
	BlocksDropped int
	// Errs holds one error per degraded stream, wrapped with the file name.
	Errs []error
}

// Degraded reports whether anything less than a full load happened.
func (s *Salvage) Degraded() bool { return s.Truncated > 0 || s.Unreadable > 0 }

func (s *Salvage) String() string {
	out := fmt.Sprintf("salvage: %d/%d streams full, %d truncated, %d unreadable; %d records (%d salvaged, %d dropped)",
		s.Full, s.Ranks, s.Truncated, s.Unreadable, s.Records, s.Salvaged, s.Dropped)
	if s.BlocksDropped > 0 {
		out += fmt.Sprintf("; %d blocks kept, %d skipped", s.Blocks, s.BlocksDropped)
	}
	return out
}
